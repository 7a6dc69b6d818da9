package diff

// myersMatches computes an LCS of two files, given as interned line symbols,
// as maximal runs of matching lines using the linear-space divide-and-conquer
// form of Myers' O(ND) algorithm (Myers, "An O(ND) Difference Algorithm and
// Its Variations", Algorithmica 1986; the paper cites the closely related
// Miller–Myers file comparison program). Memory is O(N+M); time is
// O((N+M)·D).
func myersMatches(_ *hmScratch, sa, sb []int, _ int) []match {
	return myersMiddle(sa, sb)
}

// myersMiddle solves a region of symbols, returning ascending maximal runs in
// the region's own coordinates. The recursion trims common affixes at every
// level, the top one included, so the whole files and the already-trimmed
// middle of the Hunt–McIlroy density fallback are equally good inputs.
func myersMiddle(a, b []int) []match {
	var ais, bis []int
	myersRec(a, b, 0, 0, &ais, &bis)
	return matchesFromPairs(ais, bis)
}

// myersRec appends the matched pairs of an LCS of a and b (offset by
// aOff/bOff) to ais/bis in ascending order.
func myersRec(a, b []int, aOff, bOff int, ais, bis *[]int) {
	// Trim common affixes; they are always part of some LCS.
	prefix, suffix := commonAffixes(a, b)
	for i := 0; i < prefix; i++ {
		*ais = append(*ais, aOff+i)
		*bis = append(*bis, bOff+i)
	}
	ta := a[prefix : len(a)-suffix]
	tb := b[prefix : len(b)-suffix]
	if len(ta) > 0 && len(tb) > 0 {
		sn := middleSnake(ta, tb)
		// Left half, the snake itself, right half.
		myersRec(ta[:sn.x], tb[:sn.y], aOff+prefix, bOff+prefix, ais, bis)
		for i := 0; i < sn.u-sn.x; i++ {
			*ais = append(*ais, aOff+prefix+sn.x+i)
			*bis = append(*bis, bOff+prefix+sn.y+i)
		}
		myersRec(ta[sn.u:], tb[sn.v:], aOff+prefix+sn.u, bOff+prefix+sn.v, ais, bis)
	}
	for i := 0; i < suffix; i++ {
		*ais = append(*ais, aOff+len(a)-suffix+i)
		*bis = append(*bis, bOff+len(b)-suffix+i)
	}
}

// snake is a (possibly empty) run of matches from (x,y) to (u,v) that splits
// the edit graph so both halves contain at most half the total edit distance.
type snake struct {
	x, y, u, v int
}

// middleSnake finds the middle snake of non-empty a and b by running the
// greedy forward and reverse searches in lockstep. Precondition: a and b are
// non-empty and share no common prefix or suffix, so their edit distance is
// at least 2; this guarantees both recursive halves are strictly smaller.
func middleSnake(a, b []int) snake {
	n, m := len(a), len(b)
	delta := n - m
	odd := delta%2 != 0
	max := (n + m + 1) / 2
	// vf[offset+k] = furthest forward x on diagonal k.
	// vr[offset+k] = furthest reverse x (in reversed coordinates) on
	// reverse diagonal k; reverse diagonal k corresponds to absolute
	// diagonal delta-k, and reverse x corresponds to absolute x = n - x.
	size := 2*max + 2
	offset := max
	vf := make([]int, size)
	vr := make([]int, size)
	for d := 0; d <= max; d++ {
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && vf[offset+k-1] < vf[offset+k+1]) {
				x = vf[offset+k+1]
			} else {
				x = vf[offset+k-1] + 1
			}
			y := x - k
			x0, y0 := x, y
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			vf[offset+k] = x
			if odd {
				kr := delta - k
				if kr >= -(d-1) && kr <= d-1 && x+vr[offset+kr] >= n {
					return snake{x: x0, y: y0, u: x, v: y}
				}
			}
		}
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && vr[offset+k-1] < vr[offset+k+1]) {
				x = vr[offset+k+1]
			} else {
				x = vr[offset+k-1] + 1
			}
			y := x - k
			x0, y0 := x, y
			for x < n && y < m && a[n-1-x] == b[m-1-y] {
				x++
				y++
			}
			vr[offset+k] = x
			if !odd {
				kf := delta - k
				if kf >= -d && kf <= d && x+vf[offset+kf] >= n {
					// Convert the reverse snake to absolute
					// coordinates; it runs from (n-x, m-y)
					// to (n-x0, m-y0).
					return snake{x: n - x, y: m - y, u: n - x0, v: m - y0}
				}
			}
		}
	}
	// Unreachable for valid inputs: the searches must meet by d = max.
	panic("diff: middle snake not found")
}
