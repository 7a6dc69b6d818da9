// Package diff implements the differential file comparison substrate used by
// shadow editing.
//
// The paper's prototype computes changes between successive versions of a
// file with the Hunt–McIlroy differential comparison algorithm (the algorithm
// behind UNIX diff) and ships them "in a form suitable for an editor (like ed
// in Unix) to apply the changes to a previous version". This package provides
// that algorithm from scratch, plus the two alternatives the paper names as
// future work: the Miller–Myers O(ND) algorithm and Tichy's block-move
// string-to-string correction. All three produce a Delta, which can be
// rendered as a classic ed script, applied to a base version to reconstruct
// the new version byte-for-byte, and encoded compactly for the wire.
package diff

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"shadowedit/internal/chunk"
)

// Algorithm selects which differential comparison algorithm computes a Delta.
type Algorithm int

// Supported differencing algorithms.
const (
	// HuntMcIlroy is the LCS-based algorithm of Hunt & McIlroy (1975),
	// the algorithm used by the paper's prototype (UNIX diff).
	HuntMcIlroy Algorithm = iota + 1
	// Myers is the O(ND) greedy LCS algorithm of Myers (1986), named by
	// the paper (as Miller–Myers) as a candidate replacement.
	Myers
	// TichyBlockMove is Tichy's string-to-string correction with block
	// moves (1984), also named by the paper as a candidate replacement.
	TichyBlockMove
)

// String returns the conventional name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case HuntMcIlroy:
		return "hunt-mcilroy"
	case Myers:
		return "myers"
	case TichyBlockMove:
		return "tichy"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// OpKind identifies the effect of a single delta operation.
type OpKind int

// Delta operation kinds. A Delta built from an LCS algorithm uses Delete,
// Insert and Change; a Delta built by the block-move algorithm uses Copy and
// Insert.
const (
	// OpDelete removes lines BaseStart..BaseEnd of the base version.
	OpDelete OpKind = iota + 1
	// OpInsert inserts Lines after base line BaseStart (0 = at the top).
	OpInsert
	// OpChange replaces lines BaseStart..BaseEnd of the base with Lines.
	OpChange
	// OpCopy copies lines BaseStart..BaseEnd of the base to the output
	// (used only by block-move deltas, which rebuild the target
	// left-to-right instead of patching the base in place).
	OpCopy
)

// String returns the single-letter ed-style mnemonic for the op kind.
func (k OpKind) String() string {
	switch k {
	case OpDelete:
		return "d"
	case OpInsert:
		return "a"
	case OpChange:
		return "c"
	case OpCopy:
		return "y"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one delta operation. Line numbers are 1-based, matching ed
// conventions; BaseEnd is inclusive.
type Op struct {
	Kind      OpKind
	BaseStart int
	BaseEnd   int
	Lines     [][]byte
}

// Delta is the difference between a base version and a target version of a
// file. Applying the Delta to the exact base bytes reproduces the target
// bytes. Deltas self-verify: checksums of both sides travel with the ops.
type Delta struct {
	// Algorithm records which algorithm produced the delta.
	Algorithm Algorithm
	// Ops holds the operations. For LCS deltas they are ordered by
	// descending base line (the order `diff -e` emits, so each op's line
	// numbers stay valid while earlier ops are applied). For block-move
	// deltas they are ordered left-to-right over the target.
	Ops []Op
	// BaseLen and TargetLen are the byte lengths of the two versions.
	BaseLen   int
	TargetLen int
	// BaseSum and TargetSum are CRC-32C checksums of the two versions,
	// used to detect application against the wrong base.
	BaseSum   uint32
	TargetSum uint32

	// kind caches the Apply dispatch decision (edit vs block-move), set
	// once by Compute and Decode. Hand-assembled deltas leave it at
	// kindUnknown and fall back to scanning the ops.
	kind deltaKind
}

// deltaKind is the cached result of the block-move classification.
type deltaKind int8

const (
	kindUnknown deltaKind = iota
	kindEdit
	kindBlockMove
)

// Errors reported by Apply and the wire codec.
var (
	// ErrBaseMismatch reports that the base given to Apply is not the
	// base the delta was computed from.
	ErrBaseMismatch = errors.New("diff: base does not match delta checksum")
	// ErrCorruptDelta reports a structurally invalid delta.
	ErrCorruptDelta = errors.New("diff: corrupt delta")
	// ErrVerifyFailed reports that applying a delta produced bytes whose
	// checksum differs from the recorded target checksum.
	ErrVerifyFailed = errors.New("diff: applied result fails target checksum")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C checksum this package uses to identify file
// contents.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Compute computes the delta that transforms base into target using the given
// algorithm.
//
// The returned Delta's inserted lines alias target's bytes (no copies are
// made), so the caller must not modify target while the Delta is in use.
// That holds for every op, whichever gap of the front end (see anchoredOps)
// split its lines. Every caller in this codebase either encodes the delta
// immediately or computes it from immutable stored versions.
func Compute(algorithm Algorithm, base, target []byte) (*Delta, error) {
	return ComputeSummed(algorithm, base, target, Checksum(base), Checksum(target))
}

// ComputeSummed is Compute for a caller that already holds the Checksum of
// both versions, as the version store does: the two passes over the files
// are skipped and the sums are recorded in the Delta as given.
func ComputeSummed(algorithm Algorithm, base, target []byte, baseSum, targetSum uint32) (*Delta, error) {
	d := &Delta{
		Algorithm: algorithm,
		BaseLen:   len(base),
		TargetLen: len(target),
		BaseSum:   baseSum,
		TargetSum: targetSum,
		kind:      kindEdit,
	}
	table := baseLinesPool.Get().(*[][]byte)
	defer releaseBaseLines(table)
	switch algorithm {
	case HuntMcIlroy:
		d.Ops, _ = anchoredOps(base, target, huntMcIlroyMatches, table)
	case Myers:
		d.Ops, _ = anchoredOps(base, target, myersMatches, table)
	case TichyBlockMove:
		*table = appendSplitLines(*table, base)
		d.Ops = tichyOps(*table, SplitLines(target))
		d.kind = kindBlockMove
	default:
		return nil, fmt.Errorf("diff: unknown algorithm %v", algorithm)
	}
	return d, nil
}

// Apply reconstructs the target version from the base version. It verifies
// the base checksum before applying and the target checksum afterwards, so a
// non-nil error means the result must be discarded.
func (d *Delta) Apply(base []byte) ([]byte, error) {
	out, _, err := d.ApplySpans(base)
	return out, err
}

// ApplySpans is Apply that also reports where the target differs from the
// base: the ascending, non-overlapping byte spans the ops rewrote (a
// same-length replacement is reported too — spans say where ops wrote, not
// whether the bytes differ). The receiver uses them to re-chunk only what an
// edit touched (chunk.Resplit).
//
// spans is nil when the delta gives no such account — a block-move delta
// rebuilds the target from scattered copies, and an irregular edit script
// takes the sequential fallback. A well-formed edit script always yields a
// non-nil slice, empty when it has no ops. The output never aliases base.
func (d *Delta) ApplySpans(base []byte) (out []byte, spans []chunk.Span, err error) {
	return d.ApplyInto(nil, base)
}

// ApplyInto is ApplySpans building the target in dst's backing array (from
// its start; a larger one is allocated when it is too small), for a caller
// that recycles target buffers. dst must not overlap base. On error dst's
// contents are unspecified.
func (d *Delta) ApplyInto(dst, base []byte) (out []byte, spans []chunk.Span, err error) {
	if len(base) != d.BaseLen || Checksum(base) != d.BaseSum {
		return nil, nil, ErrBaseMismatch
	}
	if d.isBlockMove() {
		out, err = applyBlockMove(d.Ops, SplitLines(base))
	} else {
		out, spans, err = applyEdits(dst, d.Ops, base)
	}
	if err != nil {
		return nil, nil, err
	}
	if len(out) != d.TargetLen || Checksum(out) != d.TargetSum {
		return nil, nil, ErrVerifyFailed
	}
	return out, spans, nil
}

// WireSize returns the encoded size of the delta in bytes, the quantity the
// shadow protocol actually sends. Experiments use it to account for network
// traffic. The size is computed arithmetically from the wire layout — the
// full encoding is never materialized.
func (d *Delta) WireSize() int {
	n := len(encodeMagic) + 1 + // magic, algorithm byte
		uvarintLen(uint64(d.BaseLen)) + uvarintLen(uint64(d.TargetLen)) +
		4 + 4 + // the two checksums
		uvarintLen(uint64(len(d.Ops)))
	for i := range d.Ops {
		op := &d.Ops[i]
		n += 1 + uvarintLen(uint64(op.BaseStart))
		switch op.Kind {
		case OpDelete, OpChange, OpCopy:
			n += uvarintLen(uint64(op.BaseEnd))
		}
		switch op.Kind {
		case OpInsert, OpChange:
			n += uvarintLen(uint64(len(op.Lines)))
			for _, l := range op.Lines {
				n += uvarintLen(uint64(len(l))) + len(l)
			}
		}
	}
	return n
}

// uvarintLen returns the number of bytes binary.AppendUvarint emits for x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// OpCount returns the number of operations in the delta.
func (d *Delta) OpCount() int { return len(d.Ops) }

func (d *Delta) isBlockMove() bool {
	switch d.kind {
	case kindEdit:
		return false
	case kindBlockMove:
		return true
	}
	// Hand-assembled delta: classify by scanning (not cached, so the
	// method stays safe under concurrent Apply calls).
	for _, op := range d.Ops {
		if op.Kind == OpCopy {
			return true
		}
	}
	return d.Algorithm == TichyBlockMove
}

// applyEdits applies LCS-style ops (ordered by descending base line) the way
// ed would: later-in-file edits first, so line numbers never shift under an
// op that has not run yet.
//
// Well-formed deltas — ops strictly descending over disjoint base regions,
// every address in bounds, exactly what Compute and Decode produce — take a
// single forward pass that emits straight into one pre-sized output buffer
// and reports the spans it rewrote. Anything else (hand-built or corrupt ops)
// falls back to the literal op-by-op ed semantics, which rebuilds the line
// slice per op but preserves the historical behavior exactly; it reports no
// spans.
func applyEdits(dst []byte, ops []Op, base []byte) ([]byte, []chunk.Span, error) {
	if out, spans, ok := applyEditsFast(dst, ops, base); ok {
		return out, spans, nil
	}
	out, err := applyEditsSequential(ops, SplitLines(base))
	return out, nil, err
}

// lineCursor finds line starts in ascending order by scanning for newlines
// as it goes, so addressing the k lines an edit script names costs one pass
// over the base and no line table.
type lineCursor struct {
	base      []byte
	line, off int // 0-based line `line` starts at byte off
}

// seek returns the byte offset at which 0-based line `to` starts; to must be
// at least the line of the previous call and at most the line count (where
// it yields len(base), also for a last line that has no newline).
func (c *lineCursor) seek(to int) int {
	for c.line < to {
		if i := bytes.IndexByte(c.base[c.off:], '\n'); i >= 0 {
			c.off += i + 1
		} else {
			c.off = len(c.base)
		}
		c.line++
	}
	return c.off
}

// applyEditsFast validates the ops and resolves them to byte spans in one
// reverse scan (ascending base order), then emits the base stretches between
// spans and the op lines into a single exactly-sized buffer — dst's backing
// array when it is big enough. ok is false when the ops are not strictly
// descending, overlap, or address out-of-bounds lines — those cases belong to
// the sequential path.
func applyEditsFast(dst []byte, ops []Op, base []byte) (out []byte, spans []chunk.Span, ok bool) {
	nlines := countLines(base)
	spans = make([]chunk.Span, 0, len(ops))
	cur := lineCursor{base: base}
	shift := 0 // target minus base offset of the bytes after the last span
	for i := len(ops) - 1; i >= 0; i-- {
		op := &ops[i]
		var s chunk.Span
		switch op.Kind {
		case OpDelete, OpChange:
			if op.BaseStart < 1 || op.BaseEnd < op.BaseStart ||
				op.BaseEnd > nlines || op.BaseStart-1 < cur.line {
				return nil, nil, false
			}
			s.BaseStart, s.BaseEnd = cur.seek(op.BaseStart-1), cur.seek(op.BaseEnd)
		case OpInsert:
			if op.BaseStart < 0 || op.BaseStart > nlines || op.BaseStart < cur.line {
				return nil, nil, false
			}
			s.BaseStart = cur.seek(op.BaseStart)
			s.BaseEnd = s.BaseStart
		default:
			return nil, nil, false
		}
		s.TargetStart = s.BaseStart + shift
		s.TargetEnd = s.TargetStart
		if op.Kind != OpDelete {
			for _, l := range op.Lines {
				s.TargetEnd += len(l)
			}
		}
		shift = s.TargetEnd - s.BaseEnd
		spans = append(spans, s)
	}
	out = slices.Grow(dst[:0], len(base)+shift)
	copied := 0 // base bytes consumed
	for i, s := range spans {
		out = append(out, base[copied:s.BaseStart]...)
		if op := &ops[len(ops)-1-i]; op.Kind != OpDelete {
			out = appendLines(out, op.Lines)
		}
		copied = s.BaseEnd
	}
	return append(out, base[copied:]...), spans, true
}

// applyEditsSequential is the reference ed semantics: each op addresses the
// file as left by the ops before it.
func applyEditsSequential(ops []Op, lines [][]byte) ([]byte, error) {
	work := make([][]byte, len(lines))
	copy(work, lines)
	for _, op := range ops {
		start, end := op.BaseStart, op.BaseEnd
		switch op.Kind {
		case OpDelete, OpChange:
			if start < 1 || end < start || end > len(work) {
				return nil, fmt.Errorf("%w: %s %d,%d outside 1..%d",
					ErrCorruptDelta, op.Kind, start, end, len(work))
			}
			var repl [][]byte
			if op.Kind == OpChange {
				repl = op.Lines
			}
			rest := make([][]byte, 0, len(work)-(end-start+1)+len(repl))
			rest = append(rest, work[:start-1]...)
			rest = append(rest, repl...)
			rest = append(rest, work[end:]...)
			work = rest
		case OpInsert:
			if start < 0 || start > len(work) {
				return nil, fmt.Errorf("%w: %s after %d outside 0..%d",
					ErrCorruptDelta, op.Kind, start, len(work))
			}
			rest := make([][]byte, 0, len(work)+len(op.Lines))
			rest = append(rest, work[:start]...)
			rest = append(rest, op.Lines...)
			rest = append(rest, work[start:]...)
			work = rest
		default:
			return nil, fmt.Errorf("%w: op kind %v in edit delta", ErrCorruptDelta, op.Kind)
		}
	}
	return JoinLines(work), nil
}

// applyBlockMove rebuilds the target from Copy and Insert ops in order: one
// validation-and-sizing pass, then one emission pass into a pre-sized buffer.
func applyBlockMove(ops []Op, lines [][]byte) ([]byte, error) {
	total := 0
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpCopy:
			if op.BaseStart < 1 || op.BaseEnd < op.BaseStart || op.BaseEnd > len(lines) {
				return nil, fmt.Errorf("%w: copy %d,%d outside 1..%d",
					ErrCorruptDelta, op.BaseStart, op.BaseEnd, len(lines))
			}
			for _, l := range lines[op.BaseStart-1 : op.BaseEnd] {
				total += len(l)
			}
		case OpInsert:
			for _, l := range op.Lines {
				total += len(l)
			}
		default:
			return nil, fmt.Errorf("%w: op kind %v in block-move delta", ErrCorruptDelta, op.Kind)
		}
	}
	out := make([]byte, 0, total)
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpCopy:
			out = appendLines(out, lines[op.BaseStart-1:op.BaseEnd])
		case OpInsert:
			out = appendLines(out, op.Lines)
		}
	}
	return out, nil
}

// appendLines appends the bytes of each line to out.
func appendLines(out []byte, lines [][]byte) []byte {
	for _, l := range lines {
		out = append(out, l...)
	}
	return out
}

// match is a run of identical lines: a[ai..ai+n) == b[bi..bi+n), 0-based.
type match struct {
	ai, bi, n int
}

// appendOps appends, in ascending base order, the ed-style ops an LCS of one
// stretch of the files implies: one op for each gap between its matches.
// matches are the stretch's maximal runs of matching lines in ascending order,
// na is its number of base lines, b its target lines, and line the number of
// base lines before it. Op.Lines aliases b (see the Compute contract).
func appendOps(ops []Op, matches []match, na int, b [][]byte, line int) []Op {
	ops = slices.Grow(ops, len(matches)+1)
	ai, bi := 0, 0
	for i := 0; i <= len(matches); i++ {
		m := match{ai: na, bi: len(b)} // the last gap ends where the stretch does
		if i < len(matches) {
			m = matches[i]
		}
		switch {
		case m.ai > ai && m.bi > bi:
			ops = append(ops, Op{Kind: OpChange, BaseStart: line + ai + 1, BaseEnd: line + m.ai, Lines: b[bi:m.bi]})
		case m.ai > ai:
			ops = append(ops, Op{Kind: OpDelete, BaseStart: line + ai + 1, BaseEnd: line + m.ai})
		case m.bi > bi:
			// Insert after base line ai (0 = at the top).
			ops = append(ops, Op{Kind: OpInsert, BaseStart: line + ai, Lines: b[bi:m.bi]})
		}
		ai, bi = m.ai+m.n, m.bi+m.n
	}
	return ops
}

// matchesFromPairs coalesces individual matched line pairs (ascending in both
// coordinates) into maximal runs. A counting pass sizes the result exactly,
// so the build pass never reallocates.
func matchesFromPairs(ais, bis []int) []match {
	runs := 0
	for i := 0; i < len(ais); {
		j := i + 1
		for j < len(ais) && ais[j] == ais[j-1]+1 && bis[j] == bis[j-1]+1 {
			j++
		}
		runs++
		i = j
	}
	if runs == 0 {
		return nil
	}
	ms := make([]match, 0, runs)
	for i := 0; i < len(ais); {
		j := i + 1
		for j < len(ais) && ais[j] == ais[j-1]+1 && bis[j] == bis[j-1]+1 {
			j++
		}
		ms = append(ms, match{ai: ais[i], bi: bis[i], n: j - i})
		i = j
	}
	return ms
}
