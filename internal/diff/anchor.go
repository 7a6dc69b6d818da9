package diff

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// syncLines is how many whole lines base and target must share in a row,
// after a mismatch, for the place to count as an anchor.
const syncLines = 16

// anchoredOps is the byte-level front end of Compute for the two LCS engines
// (DESIGN.md §6.2): it computes the ops of an LCS delta from base to target,
// ordered by descending base line, at a cost that follows the edit and not
// the file, and reports how many lines it gave the engine.
//
// It walks the whole lines base and target share from the top. At a mismatch,
// nextAnchor finds the nearest anchor; the gap before it — and nothing else —
// is solved by engine on the symbols the search interned, its ops shifted by
// the base lines skipped so far, and the walk resumes where the anchor's
// shared lines end. A gap empty on one side is a bare insert or delete, and
// one line against one a change; neither needs the engine. Where the files
// share no anchor, the gap is everything up to the common suffix: the
// engine's cost before the front end existed, on the same scratch.
//
// An anchor is a heuristic. Every line declared shared is compared byte for
// byte, so the delta is always correct; a false anchor (sixteen lines that
// repeat elsewhere) can only make it larger than the engine's. Where matching
// lines do not cross — edits in place, insertions, deletions in files of
// distinct lines — the LCS is unique and the ops are exactly the engine's.
func anchoredOps(base, target []byte, engine func(sc *hmScratch, a, b []int, nsym int) []match, sc *hmScratch) (ops []Op, handed int) {
	x, line := sharedLines(base, target) // a line start in both files; base lines before it
	y := x
	for x < len(base) || y < len(target) {
		at := sc.nextAnchor(base[x:], target[y:])
		off := sc.scans[1].off
		gx, gy := sc.scans[0].off[at.i], off[at.j]
		// The gap's target lines, which the search has split already. The
		// op lines alias this table, so it is the one allocation per gap
		// that cannot be pooled.
		b := make([][]byte, at.j)
		for k := range b {
			b[k] = target[y+off[k] : y+off[k+1]]
		}
		var matches []match
		if at.i > 0 && at.j > 0 && at.i+at.j > 2 { // two lines that differ share nothing
			matches = engine(sc, sc.scans[0].sym[:at.i], sc.scans[1].sym[:at.j], len(sc.table.lines))
			handed += at.i + at.j
		}
		ops = appendOps(ops, matches, at.i, b, line)
		line += at.i + at.lines
		x, y = x+gx+at.n, y+gy+at.n
	}
	slices.Reverse(ops)
	return ops, handed
}

// anchor is where two files run together again after a mismatch: the gap is
// i lines of the one and j of the other, and the n bytes that follow are the
// same whole lines in both, lines of them.
type anchor struct{ i, j, n, lines int }

// nextAnchor finds the nearest anchor after a mismatch at the start of a and
// b: the nearest place where they share syncLines whole lines in a row, or run
// together to the end of both. Where they have none, it is where their common
// suffix of whole lines starts, and the gap is the rest of both files.
//
// It reads the two files a line at a time each, in step, interning each line
// (sc.scans holds the symbols and where the lines start, so the engine solves
// the gap without reading it again) and noting the first line of each file
// with each symbol. A line the other file has had is a candidate, whose shared
// lines are compared byte for byte (once: the candidates after it on the same
// run are skipped); the first that shares enough is the anchor. The lines read
// are those of the gap and the candidates' own, so the search costs what the
// gap costs.
func (sc *hmScratch) nextAnchor(a, b []byte) anchor {
	scans := [2]*scan{sc.scans[0].reset(a), sc.scans[1].reset(b)}
	// Of the anchors found in one step, offer keeps the one that leaves the
	// files closest in length: in a file that repeats itself, that tells the
	// block that was deleted from the block that could be inserted to the
	// same end. It returns how many lines the candidate shares.
	var at anchor
	found, skew := false, 0
	offer := func(i, j, x, y int) int {
		n, lines := sharedLines(a[x:], b[y:])
		d := max(len(a)-x-len(b)+y, len(b)-y-len(a)+x)
		if (lines >= syncLines || x+n == len(a) && y+n == len(b)) && (!found || d < skew) {
			at, found, skew = anchor{i, j, n, lines}, true, d
		}
		return lines
	}
	sc.table.reset(0)
	sc.first = sc.first[:0] // first[s-1][f]: 1 + the first line of file f with symbol s
	var short anchor        // the last candidate, which shared too few lines
	for k := 0; !scans[0].done() || !scans[1].done(); k++ {
		for f, s := range scans {
			if s.done() {
				continue
			}
			sym := s.read(&sc.table)
			if sym > len(sc.first) {
				sc.first = append(sc.first, [2]int32{})
			}
			e := &sc.first[sym-1]
			if e[f] == 0 {
				e[f] = int32(k + 1)
			}
			i, j := k, int(e[1-f])-1
			if f == 1 {
				i, j = j, k
			}
			if d := i - short.i; min(i, j) < 0 || d > 0 && d < short.lines && j-short.j == d {
				continue // not in the other file yet, or inside a run found too short
			}
			short = anchor{i: i, j: j, lines: offer(i, j, scans[0].off[i], scans[1].off[j])}
		}
		if found {
			return at
		}
	}
	s := commonSuffixLines(a, b)
	i, _ := slices.BinarySearch(scans[0].off, len(a)-s)
	j, _ := slices.BinarySearch(scans[1].off, len(b)-s)
	return anchor{i: i, j: j, n: s}
}

// scan is one file after a mismatch, split into lines as far as the anchor
// search has read it.
type scan struct {
	text []byte
	off  []int // where each line read starts, then where the last one ends
	sym  []int // the symbol of each line read
}

func (s *scan) reset(text []byte) *scan {
	s.text, s.off, s.sym = text, append(s.off[:0], 0), s.sym[:0]
	return s
}

func (s *scan) done() bool { return s.off[len(s.off)-1] == len(s.text) }

// read reads the next line and returns its symbol in t.
func (s *scan) read(t *lineTable) int {
	at, end := s.off[len(s.off)-1], len(s.text)
	if i := bytes.IndexByte(s.text[at:], '\n'); i >= 0 {
		end = at + i + 1
	}
	sym := int(t.sym(s.text[at:end]))
	s.off, s.sym = append(s.off, end), append(s.sym, sym)
	return sym
}

// sharedLines returns the length in bytes of the whole lines a and b share at
// their start, and how many they are. A last line without a newline is shared
// only when it ends both.
func sharedLines(a, b []byte) (n, lines int) {
	n = CommonPrefixLen(a, b)
	if n > 0 && (n < len(a) || n < len(b)) {
		n = bytes.LastIndexByte(a[:n], '\n') + 1
	}
	return n, bytes.Count(a[:n], nlByte)
}

// CommonPrefixLen returns the number of leading bytes a and b share: word by
// word over the first few lines, where most comparisons end, then in blocks
// that shrink at the first difference, so a long shared stretch goes by at
// the speed of bytes.Equal. The job interpreter's sort uses it too.
func CommonPrefixLen(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for ; i+8 <= n && i < 256; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for blk := 4096; blk > 0; blk /= 16 {
		for i+blk <= n && bytes.Equal(a[i:i+blk], b[i:i+blk]) {
			i += blk
		}
	}
	return i
}

// commonSuffixLines returns the length in bytes of the longest common suffix
// of a and b that starts at a line start in both.
func commonSuffixLines(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for blk := 4096; blk > 0; blk /= 16 {
		for i+blk <= n && bytes.Equal(a[len(a)-i-blk:len(a)-i], b[len(b)-i-blk:len(b)-i]) {
			i += blk
		}
	}
	// The byte before the shared suffix differs between the files, so the
	// first line start both agree on follows the suffix's first newline.
	nl := bytes.IndexByte(a[len(a)-i:], '\n')
	if nl < 0 {
		return 0
	}
	return i - nl - 1
}
