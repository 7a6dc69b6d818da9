package diff

import "sync"

// hmScratch carries the per-Compute working arrays: the intern table and both
// symbol sequences every algorithm uses, and Hunt–McIlroy's CSR equivalence
// classes, candidate arena and backtrack buffers. A steady-state Compute
// reuses all of it from a pool, leaving only the outputs (the ops and the
// target lines they alias) on the heap.
type hmScratch struct {
	table    lineTable
	sa, sb   []int
	bstart   []int32
	pos      []int32
	bcur     []int32
	thresh   []int32
	link     []int32
	arena    []cand
	ais, bis []int
}

var hmPool = sync.Pool{New: func() any { return new(hmScratch) }}

// maxPooledScratch bounds the scratch a diff hands back to its pool. The
// gaps between anchors, which are what a steady edit cycle diffs, need a few
// KB, and a whole 32 KiB file about 120 KB. The scratch of a whole-file diff
// of a larger file (about 1 MB for 256 KiB) is let go with the call: pooled,
// it would be handed to every small diff after it and go back with them, and
// whether the heap holds it at a given moment would depend on when the
// collector last found it idle.
const maxPooledScratch = 128 << 10

// footprint returns the bytes the scratch's arrays hold.
func (sc *hmScratch) footprint() int {
	ints := cap(sc.sa) + cap(sc.sb) + cap(sc.ais) + cap(sc.bis)
	int32s := cap(sc.bstart) + cap(sc.pos) + cap(sc.bcur) + cap(sc.thresh) + cap(sc.link)
	return 8*ints + 4*int32s + 12*cap(sc.arena) + // a cand is three int32s
		4*cap(sc.table.slots) + 8*cap(sc.table.hashes) + 24*cap(sc.table.lines)
}

// release returns the scratch to the pool, unless it has grown past
// maxPooledScratch, and reports whether it did. It first drops references
// into caller data: the intern table's representative lines point into the
// files being compared.
func (sc *hmScratch) release() (pooled bool) {
	if sc.footprint() > maxPooledScratch {
		return false
	}
	clear(sc.table.lines)
	sc.table.lines = sc.table.lines[:0]
	hmPool.Put(sc)
	return true
}

// huntMcIlroyMatches computes an LCS of a and b as maximal runs of matching
// lines using the Hunt–McIlroy candidate-threshold technique (Hunt & McIlroy,
// "An Algorithm for Differential File Comparison", Bell Labs CSTR 41, 1975).
//
// Lines are interned to integer symbols, a common prefix and suffix are
// trimmed (they are always part of some LCS), and the middle is solved in
// O((R+N) log N) where R is the number of matching line pairs. For degenerate
// inputs where R explodes (files of near-identical lines) the middle goes to
// the Myers algorithm instead, which bounds work by edit distance.
func huntMcIlroyMatches(a, b [][]byte) []match {
	sc := hmPool.Get().(*hmScratch)
	defer sc.release()
	sa, sb, nsym := sc.internBoth(a, b)
	prefix, suffix := commonAffixes(sa, sb)
	ma := sa[prefix : len(sa)-suffix]
	mb := sb[prefix : len(sb)-suffix]
	mid, ok := huntMiddle(ma, mb, nsym, sc)
	if !ok {
		mid = myersMiddle(ma, mb)
	}
	// No two of the three parts abut: a middle run touching the prefix or
	// the suffix would have been trimmed with it.
	ms := make([]match, 0, len(mid)+2)
	if prefix > 0 {
		ms = append(ms, match{ai: 0, bi: 0, n: prefix})
	}
	for _, m := range mid {
		ms = append(ms, match{ai: m.ai + prefix, bi: m.bi + prefix, n: m.n})
	}
	if suffix > 0 {
		ms = append(ms, match{ai: len(sa) - suffix, bi: len(sb) - suffix, n: suffix})
	}
	return ms
}

// maxMatchPairs bounds the candidate work before falling back to Myers.
const maxMatchPairs = 1 << 22

// cand is a k-candidate in Hunt–McIlroy's terminology: the head of a chain of
// matched pairs of length k. Candidates live in one flat arena slice and
// chain through int32 indices (prev, -1 for none) instead of pointers, so a
// whole Compute costs a handful of slice growths rather than one heap object
// per matched pair — and the GC never traces the chains.
type cand struct {
	ai, bi int32
	prev   int32
}

// huntMiddle runs the candidate algorithm on the trimmed middle region.
// nsym is the number of distinct interned symbols (symbols are dense 1..nsym).
// ok is false when the match density exceeds maxMatchPairs. Working arrays
// come from sc; only the returned matches are freshly allocated.
func huntMiddle(a, b []int, nsym int, sc *hmScratch) ([]match, bool) {
	if len(a) == 0 || len(b) == 0 {
		return nil, true
	}
	// Equivalence classes, CSR-style: one flat position array grouped by
	// symbol. bstart[s]..bstart[s+1] delimits symbol s's positions in b,
	// stored in descending order — the traversal order Hunt–Szymanski
	// needs so updates within one a-line don't feed each other.
	bstart := grow(&sc.bstart, nsym+2)
	clear(bstart)
	for _, s := range b {
		bstart[s+1]++
	}
	for s := 1; s < len(bstart); s++ {
		bstart[s] += bstart[s-1]
	}
	pos := grow(&sc.pos, len(b)) // fully overwritten below, no zeroing
	bcur := grow(&sc.bcur, nsym+1)
	copy(bcur, bstart[:nsym+1])
	for j := len(b) - 1; j >= 0; j-- {
		s := b[j]
		pos[bcur[s]] = int32(j)
		bcur[s]++
	}
	// Abort early if total match pairs would be pathological.
	pairs := 0
	for _, s := range a {
		pairs += int(bstart[s+1] - bstart[s])
		if pairs > maxMatchPairs {
			return nil, false
		}
	}

	// thresh[k] = smallest b-index j ending a common subsequence of
	// length k+1; link[k] = arena index of the corresponding candidate
	// chain head.
	thresh := sc.thresh[:0]
	link := sc.link[:0]
	arena := sc.arena[:0]
	if cap(arena) == 0 {
		arena = make([]cand, 0, min(pairs, 4096))
	}
	for i, s := range a {
		for _, j := range pos[bstart[s]:bstart[s+1]] {
			// Find lowest k with thresh[k] >= j.
			k := searchInt32(thresh, j)
			if k < len(thresh) && thresh[k] == j {
				continue // same endpoint, no improvement
			}
			prev := int32(-1)
			if k > 0 {
				prev = link[k-1]
			}
			arena = append(arena, cand{ai: int32(i), bi: j, prev: prev})
			ci := int32(len(arena) - 1)
			if k == len(thresh) {
				thresh = append(thresh, j)
				link = append(link, ci)
			} else {
				thresh[k] = j
				link[k] = ci
			}
		}
	}
	// Hand the grown slices back to the scratch so the capacity carries
	// to the next Compute.
	sc.thresh, sc.link, sc.arena = thresh, link, arena
	if len(link) == 0 {
		return nil, true
	}
	// Backtrack the longest chain into ascending matched pairs.
	n := len(link)
	ais := grow(&sc.ais, n)
	bis := grow(&sc.bis, n)
	for ci, k := link[n-1], n-1; ci >= 0; ci, k = arena[ci].prev, k-1 {
		ais[k], bis[k] = int(arena[ci].ai), int(arena[ci].bi)
	}
	return matchesFromPairs(ais, bis), true
}

// grow reslices *s to length n, reallocating only when capacity is short;
// contents are unspecified.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
	}
	return *s
}

// searchInt32 returns the smallest index i with v[i] >= x (len(v) if none),
// like sort.SearchInts for int32 slices but without the closure dispatch.
func searchInt32(v []int32, x int32) int {
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
