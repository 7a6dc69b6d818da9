package diff

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

const (
	// syncLines is how many whole lines base and target must share in a
	// row, after a mismatch, for the place to count as an anchor.
	syncLines = 16
	// searchBound is the edit distance, in lines, beyond which the anchor
	// search never looks. A search to distance d takes about d*d/2 steps of
	// one line each. One search may take a step per searchShare bytes of
	// the two files, so the one that fails adds a few percent to what the
	// engine then costs; all together may take a step per totalShare bytes,
	// so a file of many wide gaps, each dearer to find than to solve, goes
	// to the engine after a fraction of the engine's own cost.
	searchBound = 48
	searchShare = 768
	totalShare  = 64
)

// anchoredOps is the byte-level front end of Compute for the two LCS engines
// (DESIGN.md §6.2): it computes the ops of an LCS delta from base to target,
// ordered by descending base line, at a cost that follows the edit and not
// the file, and reports how many lines it gave the engine.
//
// It walks the whole lines base and target share from the top. At a mismatch,
// resync looks for the nearest anchor; the gap before it — and nothing else —
// is split into lines and solved by engine, its ops shifted by the base lines
// skipped so far, and the walk resumes where the anchor's shared lines end. A
// gap empty on one side is a bare insert or delete and needs no engine. When
// resync gives up, the gap is everything up to the common suffix: the
// engine's cost before the front end existed, on the same pooled tables
// (table is the caller's scratch for the base side of each gap).
//
// An anchor is a heuristic. Every line declared shared is compared byte for
// byte, so the delta is always correct; a false anchor (sixteen lines that
// repeat elsewhere) can only make it larger than the engine's. Where matching
// lines do not cross — edits in place, insertions, deletions in files of
// distinct lines — the LCS is unique and the ops are exactly the engine's.
func anchoredOps(base, target []byte, engine func(a, b [][]byte) []match, table *[][]byte) (ops []Op, handed int) {
	size := len(base) + len(target)
	steps := size / totalShare
	x, line := sharedLines(base, target) // a line start in both files; base lines before it
	y := x
	for x < len(base) || y < len(target) {
		at, spent, ok := resync(base[x:], target[y:], min(steps, size/searchShare))
		steps -= spent
		if !ok {
			s := commonSuffixLines(base[x:], target[y:])
			at = anchor{x: len(base) - x - s, y: len(target) - y - s, n: s}
		}
		// The op lines alias this table, so it is the one allocation per
		// gap that cannot be pooled.
		b := SplitLines(target[y : y+at.y])
		var matches []match
		na := 0
		if at.x > 0 && at.y > 0 {
			a := appendSplitLines((*table)[:0], base[x:x+at.x])
			if len(a) > len(*table) {
				*table = a // the longest split yet: what the caller clears
			}
			matches, na = engine(a, b), len(a)
			handed += na + len(b)
		} else {
			na = countLines(base[x : x+at.x])
		}
		ops = appendOps(ops, matches, na, b, line)
		line += na + at.lines
		x, y = x+at.x+at.n, y+at.y+at.n
	}
	slices.Reverse(ops)
	return ops, handed
}

// anchor is where two files run together again after a mismatch: the gap ends
// at byte offsets x and y, and the n bytes that follow are the same whole
// lines in both.
type anchor struct{ x, y, n, lines int }

// resync finds the nearest anchor after a mismatch at the start of a and b:
// the nearest place where they share syncLines lines in a row, or run
// together to the end of both. It is the forward half of Myers' greedy O(ND)
// search with the line as its unit — no line table, no hashing, and no
// history, since only the meeting point is wanted, not the path to it. spent
// is the steps it took; ok is false when no anchor lies within searchBound
// insertions and deletions or within the steps allowed.
func resync(a, b []byte, steps int) (at anchor, spent int, ok bool) {
	// v[mid+k] is the furthest point a path reaches on diagonal k: a line
	// start in each file; x < 0 marks a diagonal no path has reached.
	type fork struct{ x, y int }
	const mid = searchBound + 1
	var v [2*searchBound + 3]fork
	for i := range v {
		v[i].x = -1
	}
	for d := 0; d <= searchBound && spent <= steps; d++ {
		spent += d + 1
		bestSkew := 0
		for k := -d; k <= d; k += 2 {
			var f fork
			down, right := v[mid+k+1], v[mid+k-1]
			downOK := down.x >= 0 && down.y < len(b)
			rightOK := right.x >= 0 && right.x < len(a)
			switch {
			case d == 0:
			case downOK && (!rightOK || right.x < down.x):
				f = fork{down.x, down.y + lineLen(b[down.y:])}
			case rightOK:
				f = fork{right.x + lineLen(a[right.x:]), right.y}
			default:
				v[mid+k].x = -1
				continue
			}
			n, lines := sharedLines(a[f.x:], b[f.y:])
			v[mid+k] = fork{f.x + n, f.y + n}
			if lines >= syncLines || (f.x+n == len(a) && f.y+n == len(b)) {
				// Of anchors equally near, take the one that leaves the
				// files closest in length: in a file that repeats itself,
				// that tells the block that was deleted from the block
				// that could be inserted to the same end.
				skew := (len(a) - f.x) - (len(b) - f.y)
				if skew < 0 {
					skew = -skew
				}
				if !ok || skew < bestSkew {
					at, bestSkew, ok = anchor{f.x, f.y, n, lines}, skew, true
				}
			}
		}
		if ok {
			return at, spent, true
		}
	}
	return anchor{}, spent, false
}

// lineLen returns the length of the first line of s, newline included.
func lineLen(s []byte) int {
	if i := bytes.IndexByte(s, '\n'); i >= 0 {
		return i + 1
	}
	return len(s)
}

// sharedLines returns the length in bytes of the whole lines a and b share at
// their start, and how many they are. A last line without a newline is shared
// only when it ends both.
func sharedLines(a, b []byte) (n, lines int) {
	n = commonPrefixLen(a, b)
	if n > 0 && (n < len(a) || n < len(b)) {
		n = bytes.LastIndexByte(a[:n], '\n') + 1
	}
	return n, bytes.Count(a[:n], nlByte)
}

// commonPrefixLen returns the number of leading bytes a and b share: word by
// word over the first few lines, where the search's comparisons nearly all
// end, then in blocks that shrink at the first difference, so a long shared
// stretch goes by at the speed of bytes.Equal.
func commonPrefixLen(a, b []byte) int {
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
