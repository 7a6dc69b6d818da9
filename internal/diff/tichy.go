package diff

// tichyOps computes a block-move delta per Tichy, "The String-to-String
// Correction Problem with Block Moves" (ACM TOCS 1984): the target is rebuilt
// left-to-right from blocks copied out of the base (from anywhere, including
// reordered or repeated blocks — which LCS deltas cannot express) plus
// inserted lines. Tichy proves the greedy choice — always take the longest
// base block matching the remaining target prefix — minimizes the number of
// ops.
//
// To keep worst-case cost bounded on low-entropy inputs, at most
// maxTichyCandidates base occurrences are tried per target line; this can
// make the delta slightly non-minimal but never incorrect.
func tichyOps(a, b [][]byte) []Op {
	sc := hmPool.Get().(*hmScratch)
	defer sc.release()
	sa, sb, nsym := sc.internBoth(a, b)
	// Index base occurrences CSR-style: astart[s]..astart[s+1] delimits
	// symbol s's ascending positions in sa.
	astart := make([]int32, nsym+2)
	for _, s := range sa {
		astart[s+1]++
	}
	for s := 1; s < len(astart); s++ {
		astart[s] += astart[s-1]
	}
	pos := make([]int32, len(sa))
	acur := make([]int32, nsym+1)
	copy(acur, astart[:nsym+1])
	for i, s := range sa {
		pos[acur[s]] = int32(i)
		acur[s]++
	}

	var ops []Op
	var pendingInsert [][]byte
	flushInsert := func() {
		if len(pendingInsert) > 0 {
			// The lines alias the target's bytes, per the Compute
			// contract; pendingInsert is abandoned after the flush, so
			// the op owns the slice.
			ops = append(ops, Op{Kind: OpInsert, Lines: pendingInsert})
			pendingInsert = nil
		}
	}

	j := 0
	for j < len(sb) {
		bestStart, bestLen := -1, 0
		s := sb[j]
		cands := pos[astart[s]:astart[s+1]]
		if len(cands) > maxTichyCandidates {
			cands = cands[:maxTichyCandidates]
		}
		for _, i32 := range cands {
			i := int(i32)
			l := 0
			for i+l < len(sa) && j+l < len(sb) && sa[i+l] == sb[j+l] {
				l++
			}
			if l > bestLen {
				bestStart, bestLen = i, l
				if j+l == len(sb) {
					break // cannot do better
				}
			}
		}
		if bestLen == 0 {
			pendingInsert = append(pendingInsert, b[j])
			j++
			continue
		}
		flushInsert()
		ops = append(ops, Op{
			Kind:      OpCopy,
			BaseStart: bestStart + 1,
			BaseEnd:   bestStart + bestLen,
		})
		j += bestLen
	}
	flushInsert()
	return ops
}

// maxTichyCandidates bounds the base occurrences examined per target line.
const maxTichyCandidates = 64
