package diff

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// SplitLines splits content into lines, each retaining its trailing newline.
// A final byte sequence without a trailing newline forms a line of its own,
// so JoinLines(SplitLines(b)) == b for every input, including inputs that do
// not end in a newline and the empty input (which yields no lines).
func SplitLines(content []byte) [][]byte {
	if len(content) == 0 {
		return nil
	}
	// Count lines first so one allocation fits.
	dst := make([][]byte, 0, countLines(content))
	for len(content) > 0 {
		i := bytes.IndexByte(content, '\n')
		if i < 0 {
			return append(dst, content)
		}
		dst = append(dst, content[:i+1])
		content = content[i+1:]
	}
	return dst
}

// countLines returns len(SplitLines(content)) without building the table.
func countLines(content []byte) int {
	n := bytes.Count(content, nlByte)
	if len(content) > 0 && content[len(content)-1] != '\n' {
		n++
	}
	return n
}

var nlByte = []byte{'\n'}

// JoinLines concatenates lines back into file content. It is the inverse of
// SplitLines.
func JoinLines(lines [][]byte) []byte {
	total := 0
	for _, l := range lines {
		total += len(l)
	}
	out := make([]byte, 0, total)
	for _, l := range lines {
		out = append(out, l...)
	}
	return out
}

// lineTable assigns a small integer symbol to every distinct line so the LCS
// algorithms compare ints instead of byte slices. Both files share one table,
// mirroring the equivalence-class construction in Hunt & McIlroy (1975).
//
// Interning is hash-first: every line hashes to a uint64 and lookups probe an
// open-addressed table by its high half, which each slot keeps beside its
// symbol; the byte-by-byte comparison runs only when two lines agree there.
// The table doubles when half full, entering each symbol again by its kept
// half, so the lookup path allocates nothing once the scratch has grown —
// line contents are referenced, not copied (callers keep the backing file
// buffers alive for the duration of a Compute).
type lineTable struct {
	mask  uint64   // len(slots)-1; len is a power of two
	slots []uint64 // 0 = empty, else a line's hash in the high half, its symbol in the low
	tags  []uint32 // symbol-1 -> the high half of its line's hash
	lines [][]byte // symbol-1 -> representative line
}

// sym returns the symbol for l, assigning the next free one on first sight.
func (t *lineTable) sym(l []byte) int32 {
	if 2*len(t.lines) >= len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	tag := uint32(hashLine(l) >> 32)
	for i := uint64(tag) & t.mask; ; i = (i + 1) & t.mask {
		e := t.slots[i]
		if e == 0 {
			t.lines, t.tags = append(t.lines, l), append(t.tags, tag)
			t.slots[i] = uint64(tag)<<32 | uint64(len(t.lines))
			return int32(len(t.lines))
		}
		if uint32(e>>32) == tag && bytes.Equal(t.lines[uint32(e)-1], l) {
			return int32(uint32(e))
		}
	}
}

// reset empties the table and sizes it for n symbols; the storage of the
// last use is kept, its references into the files dropped.
func (t *lineTable) reset(n int) {
	clear(t.lines)
	t.lines, t.tags = slices.Grow(t.lines[:0], n), slices.Grow(t.tags[:0], n)
	t.resize(2*n + 1)
}

// resize gives the table at least size slots, a power of two, and enters the
// symbols it holds again.
func (t *lineTable) resize(size int) {
	n := 16
	for n < size {
		n <<= 1
	}
	clear(grow(&t.slots, n))
	t.mask = uint64(n - 1)
	for s, tag := range t.tags {
		i := uint64(tag) & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = uint64(tag)<<32 | uint64(s+1)
	}
}

// internBoth interns the lines of both files in a shared table and returns
// their symbol sequences plus the number of distinct symbols; sc.scans holds
// where each line starts. Symbols are dense (1..nsym), so callers can bucket
// by symbol with a flat slice instead of a map. The table's storage and both
// scans live in the pooled scratch, so a steady-state Compute interns without
// allocating.
func (sc *hmScratch) internBoth(a, b []byte) (sa, sb []int, nsym int) {
	n := [2]int{countLines(a), countLines(b)}
	sc.table.reset(n[0] + n[1])
	for f, text := range [2][]byte{a, b} {
		s := sc.scans[f].reset(text)
		s.off, s.sym = slices.Grow(s.off, n[f]), slices.Grow(s.sym, n[f])
		for !s.done() {
			s.read(&sc.table)
		}
	}
	return sc.scans[0].sym, sc.scans[1].sym, len(sc.table.lines)
}

// hashLine hashes a line 8 bytes at a time (xxhash/splitmix-style mixing).
// Collisions are fine — the intern table falls back to byte comparison — but
// must be rare for the lookup path to stay comparison-free.
func hashLine(b []byte) uint64 {
	const (
		m1 = 0x9E3779B185EBCA87
		m2 = 0xC2B2AE3D27D4EB4F
	)
	h := uint64(len(b))*m1 + 1
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * m1
		h ^= h >> 29
		b = b[8:]
	}
	var tail uint64
	for i := len(b) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(b[i])
	}
	h = (h ^ tail) * m2
	h ^= h >> 32
	h *= m1
	h ^= h >> 29
	return h
}

// commonAffixes trims a common prefix and suffix of a and b, returning the
// trimmed lengths. Both LCS algorithms use this: identical ends are by far
// the common case in an edit-resubmit cycle, and trimming them keeps the
// interesting region small.
func commonAffixes(a, b []int) (prefix, suffix int) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for prefix < n && a[prefix] == b[prefix] {
		prefix++
	}
	for suffix < n-prefix && a[len(a)-1-suffix] == b[len(b)-1-suffix] {
		suffix++
	}
	return prefix, suffix
}
