package diff

import (
	"bytes"
	"encoding/binary"
	"sync"
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
	return appendSplitLines(make([][]byte, 0, countLines(content)), content)
}

// countLines returns len(SplitLines(content)) without building the table.
func countLines(content []byte) int {
	n := bytes.Count(content, nlByte)
	if len(content) > 0 && content[len(content)-1] != '\n' {
		n++
	}
	return n
}

// appendSplitLines appends content's lines to dst.
func appendSplitLines(dst [][]byte, content []byte) [][]byte {
	for len(content) > 0 {
		i := bytes.IndexByte(content, '\n')
		if i < 0 {
			dst = append(dst, content)
			break
		}
		dst = append(dst, content[:i+1])
		content = content[i+1:]
	}
	return dst
}

// baseLinesPool recycles Compute's base-side line table. Nothing a Compute
// returns points into it — ops alias only the target's table — so it is
// cleared (it would otherwise pin the base content) and reused, where the
// target's table must stay a fresh allocation per call.
var baseLinesPool = sync.Pool{New: func() any { return new([][]byte) }}

// releaseBaseLines clears a base-side line table and returns it to the pool,
// unless it has grown past maxPooledScratch, and reports whether it did.
func releaseBaseLines(table *[][]byte) (pooled bool) {
	if 24*cap(*table) > maxPooledScratch {
		return false
	}
	clear(*table)
	*table = (*table)[:0]
	baseLinesPool.Put(table)
	return true
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
// open-addressed table keyed by that hash; the byte-by-byte comparison runs
// only when two hashes land in the same slot. The table is sized up front for
// the full input, so the lookup path allocates nothing — line contents are
// referenced, not copied (callers keep the backing file buffers alive for the
// duration of a Compute).
type lineTable struct {
	mask   uint64   // len(slots)-1; len is a power of two
	slots  []int32  // 0 = empty, else a 1-based symbol
	hashes []uint64 // hash of the line behind slots[i]
	lines  [][]byte // symbol-1 -> representative line
}

// sym returns the symbol for l, assigning the next free one on first sight.
func (t *lineTable) sym(l []byte) int32 {
	h := hashLine(l)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			t.lines = append(t.lines, l)
			s = int32(len(t.lines))
			t.slots[i] = s
			t.hashes[i] = h
			return s
		}
		if t.hashes[i] == h && bytes.Equal(t.lines[s-1], l) {
			return s
		}
	}
}

// internInto appends each line's symbol to out, returning the grown slice.
func (t *lineTable) internInto(out []int, lines [][]byte) []int {
	for _, l := range lines {
		out = append(out, int(t.sym(l)))
	}
	return out
}

// internBoth interns both files in a shared table and returns their symbol
// sequences plus the number of distinct symbols. Symbols are dense (1..nsym),
// so callers can bucket by symbol with a flat slice instead of a map. The
// table's storage and both sequences live in the pooled scratch, so a
// steady-state Compute interns without allocating.
func (sc *hmScratch) internBoth(a, b [][]byte) (sa, sb []int, nsym int) {
	capacity := len(a) + len(b)
	size := 16
	for size < 2*capacity {
		size <<= 1
	}
	t := &sc.table
	if cap(t.slots) >= size {
		t.slots = t.slots[:size]
		clear(t.slots) // hashes need no clearing: slot 0 guards them
		t.hashes = t.hashes[:size]
	} else {
		t.slots = make([]int32, size)
		t.hashes = make([]uint64, size)
	}
	t.mask = uint64(size - 1)
	if cap(t.lines) < capacity {
		t.lines = make([][]byte, 0, capacity)
	} else {
		t.lines = t.lines[:0]
	}
	sc.sa = t.internInto(sc.sa[:0], a)
	sc.sb = t.internInto(sc.sb[:0], b)
	return sc.sa, sc.sb, len(t.lines)
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
