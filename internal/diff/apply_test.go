package diff

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"shadowedit/internal/chunk"
)

// TestApplyFastMatchesSequential pins the single-pass apply to the reference
// op-by-op ed semantics: for random (base, target) pairs, the fast path must
// accept every delta Compute produces and emit byte-identical output to the
// sequential rebuild.
func TestApplyFastMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		base := randomDoc(rng, 40)
		var target []byte
		if trial%4 == 0 {
			target = randomDoc(rng, 40)
		} else {
			target = mutateDoc(rng, base)
		}
		lines := SplitLines(base)
		for _, alg := range []Algorithm{HuntMcIlroy, Myers} {
			d, err := Compute(alg, base, target)
			if err != nil {
				t.Fatalf("trial %d %v: Compute: %v", trial, alg, err)
			}
			fast, _, ok := applyEditsFast(nil, nil, d.Ops, [][]byte{base})
			if !ok {
				t.Fatalf("trial %d %v: fast path rejected a Compute delta\nops=%v",
					trial, alg, d.Ops)
			}
			seq, err := applyEditsSequential(d.Ops, lines)
			if err != nil {
				t.Fatalf("trial %d %v: sequential: %v", trial, alg, err)
			}
			if !bytes.Equal(fast, seq) {
				t.Fatalf("trial %d %v: fast %q != sequential %q", trial, alg, fast, seq)
			}
			if !bytes.Equal(fast, target) {
				t.Fatalf("trial %d %v: fast %q != target %q", trial, alg, fast, target)
			}
		}
	}
}

// TestApplySpansDescribeEdit pins what the receiver's re-chunking relies on:
// the spans ApplySpans reports are ascending and disjoint, and splicing the
// target's span bytes into the base's unchanged stretches rebuilds the target
// exactly — so every byte outside a span is the base's byte, shifted.
// Block-move deltas report none.
func TestApplySpansDescribeEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		base := randomDoc(rng, 40)
		target := mutateDoc(rng, base)
		if trial%5 == 0 {
			target = randomDoc(rng, 40)
		}
		for _, alg := range allAlgorithms {
			d, err := Compute(alg, base, target)
			if err != nil {
				t.Fatalf("trial %d %v: Compute: %v", trial, alg, err)
			}
			out, spans, err := d.ApplySpans(base)
			if err != nil || !bytes.Equal(out, target) {
				t.Fatalf("trial %d %v: ApplySpans = %q, %v; want %q", trial, alg, out, err, target)
			}
			if alg == TichyBlockMove {
				if spans != nil {
					t.Fatalf("trial %d: block-move delta reported spans %v", trial, spans)
				}
				continue
			}
			if spans == nil {
				t.Fatalf("trial %d %v: edit delta reported no spans", trial, alg)
			}
			var rebuilt []byte
			at := 0
			for i, s := range spans {
				if s.BaseStart < at || s.BaseEnd < s.BaseStart || s.TargetStart != len(rebuilt)+s.BaseStart-at {
					t.Fatalf("trial %d %v: span %d %+v out of order (spans %v)", trial, alg, i, s, spans)
				}
				rebuilt = append(rebuilt, base[at:s.BaseStart]...)
				rebuilt = append(rebuilt, target[s.TargetStart:s.TargetEnd]...)
				at = s.BaseEnd
			}
			rebuilt = append(rebuilt, base[at:]...)
			if !bytes.Equal(rebuilt, target) {
				t.Fatalf("trial %d %v: spans %v rebuild %q, want %q", trial, alg, spans, rebuilt, target)
			}
		}
	}
}

// TestApplyFastRejectsDisorderedOps feeds op sequences that are valid under
// sequential ed semantics but not strictly descending; the fast path must
// bail out and ApplyOps must keep the historical behavior.
func TestApplyFastRejectsDisorderedOps(t *testing.T) {
	base := []byte("a\nb\nc\nd\ne\n")
	tests := []struct {
		name string
		ops  []Op
		want string // expected sequential result
	}{
		{
			// Ascending order: the second op's address refers to the
			// file after the first delete shifted everything up.
			name: "ascending deletes",
			ops: []Op{
				{Kind: OpDelete, BaseStart: 1, BaseEnd: 1},
				{Kind: OpDelete, BaseStart: 2, BaseEnd: 2},
			},
			want: "b\nd\ne\n",
		},
		{
			// Overlapping ranges: second change hits lines produced by
			// the first.
			name: "overlapping changes",
			ops: []Op{
				{Kind: OpChange, BaseStart: 2, BaseEnd: 4, Lines: [][]byte{[]byte("X\n")}},
				{Kind: OpChange, BaseStart: 1, BaseEnd: 2, Lines: [][]byte{[]byte("Y\n")}},
			},
			want: "Y\ne\n",
		},
		{
			// Delete beyond the original length, valid only because an
			// earlier insert grew the file.
			name: "insert then delete past original end",
			ops: []Op{
				{Kind: OpInsert, BaseStart: 5, Lines: [][]byte{[]byte("f\n")}},
				{Kind: OpDelete, BaseStart: 6, BaseEnd: 6},
			},
			want: "a\nb\nc\nd\ne\n",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, ok := applyEditsFast(nil, nil, tt.ops, [][]byte{base}); ok {
				t.Fatal("fast path accepted disordered ops")
			}
			got, err := ApplyOps(tt.ops, base)
			if err != nil {
				t.Fatalf("ApplyOps: %v", err)
			}
			if string(got) != tt.want {
				t.Fatalf("ApplyOps = %q, want %q", got, tt.want)
			}
		})
	}
}

// TestApplyFastBoundaryAdjacency covers the seams the single pass must get
// right: ops that abut exactly (insert at a change's end, insert at the very
// top and bottom, back-to-back regions).
func TestApplyFastBoundaryAdjacency(t *testing.T) {
	base := []byte("1\n2\n3\n4\n5\n")
	lines := SplitLines(base)
	tests := []struct {
		name string
		ops  []Op // descending base order, as Compute emits
		want string
	}{
		{
			name: "insert after change end",
			ops: []Op{
				{Kind: OpInsert, BaseStart: 3, Lines: [][]byte{[]byte("I\n")}},
				{Kind: OpChange, BaseStart: 2, BaseEnd: 3, Lines: [][]byte{[]byte("C\n")}},
			},
			want: "1\nC\nI\n4\n5\n",
		},
		{
			name: "insert at top plus delete at bottom",
			ops: []Op{
				{Kind: OpDelete, BaseStart: 5, BaseEnd: 5},
				{Kind: OpInsert, BaseStart: 0, Lines: [][]byte{[]byte("T\n")}},
			},
			want: "T\n1\n2\n3\n4\n",
		},
		{
			name: "adjacent delete then change",
			ops: []Op{
				{Kind: OpChange, BaseStart: 4, BaseEnd: 5, Lines: [][]byte{[]byte("C\n")}},
				{Kind: OpDelete, BaseStart: 2, BaseEnd: 3},
			},
			want: "1\nC\n",
		},
		{
			name: "two inserts at the same point",
			ops: []Op{
				{Kind: OpInsert, BaseStart: 2, Lines: [][]byte{[]byte("A\n")}},
				{Kind: OpInsert, BaseStart: 2, Lines: [][]byte{[]byte("B\n")}},
			},
			// Sequential semantics: the later-stored insert lands first.
			want: "1\n2\nB\nA\n3\n4\n5\n",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			seq, err := applyEditsSequential(tt.ops, lines)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			if string(seq) != tt.want {
				t.Fatalf("sequential = %q, want %q (bad test expectation)", seq, tt.want)
			}
			fast, _, ok := applyEditsFast(nil, nil, tt.ops, [][]byte{base})
			if !ok {
				t.Skip("fast path declined; sequential fallback covers it")
			}
			if string(fast) != tt.want {
				t.Fatalf("fast = %q, want %q", fast, tt.want)
			}
		})
	}
}

// TestApplyCorruptManyOps exercises the bounds checks with op counts large
// enough to cross the fast path's validation scan.
func TestApplyCorruptManyOps(t *testing.T) {
	base := []byte(strings.Repeat("x\n", 100))
	var ops []Op
	for i := 100; i >= 1; i -= 2 {
		ops = append(ops, Op{Kind: OpChange, BaseStart: i, BaseEnd: i, Lines: [][]byte{[]byte("y\n")}})
	}
	// Sanity: the well-formed set applies.
	if _, err := ApplyOps(ops, base); err != nil {
		t.Fatalf("well-formed ops: %v", err)
	}
	for _, corrupt := range []Op{
		{Kind: OpDelete, BaseStart: 50, BaseEnd: 200},
		{Kind: OpChange, BaseStart: 0, BaseEnd: 3},
		{Kind: OpInsert, BaseStart: -1},
		{Kind: OpCopy, BaseStart: 1, BaseEnd: 1},
	} {
		bad := append(append([]Op(nil), ops...), corrupt)
		if _, err := ApplyOps(bad, base); err == nil {
			t.Fatalf("ApplyOps accepted corrupt trailing op %+v", corrupt)
		}
	}
}

// TestWireSizeMatchesEncodeProperty pins the arithmetic WireSize to the real
// encoder across random deltas of all three algorithms.
func TestWireSizeMatchesEncodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		base := randomDoc(rng, 30)
		target := mutateDoc(rng, base)
		for _, alg := range allAlgorithms {
			d, err := Compute(alg, base, target)
			if err != nil {
				t.Fatalf("Compute: %v", err)
			}
			if got, want := d.WireSize(), len(d.Encode()); got != want {
				t.Fatalf("trial %d %v: WireSize %d != len(Encode) %d", trial, alg, got, want)
			}
		}
	}
	// Multi-byte uvarint boundaries.
	big := &Delta{
		Algorithm: HuntMcIlroy,
		BaseLen:   1 << 20,
		TargetLen: 1 << 21,
		Ops: []Op{
			{Kind: OpChange, BaseStart: 1 << 14, BaseEnd: 1<<14 + 1,
				Lines: [][]byte{bytes.Repeat([]byte("z"), 300)}},
		},
	}
	if got, want := big.WireSize(), len(big.Encode()); got != want {
		t.Fatalf("big delta: WireSize %d != len(Encode) %d", got, want)
	}
}

// TestDecodeCachesBlockMoveKind verifies the decode-time classification: a
// decoded delta dispatches to the right apply path without rescanning ops.
func TestDecodeCachesBlockMoveKind(t *testing.T) {
	base := []byte("a\nb\nc\n")
	target := []byte("c\na\nb\n")
	for _, alg := range allAlgorithms {
		d := mustCompute(t, alg, base, target)
		dec, err := Decode(d.Encode())
		if err != nil {
			t.Fatalf("%v: Decode: %v", alg, err)
		}
		if dec.kind == kindUnknown {
			t.Fatalf("%v: decoded delta left kind unset", alg)
		}
		if want := alg == TichyBlockMove; dec.isBlockMove() != want {
			t.Fatalf("%v: isBlockMove = %v, want %v", alg, dec.isBlockMove(), want)
		}
		got, err := dec.Apply(base)
		if err != nil || !bytes.Equal(got, target) {
			t.Fatalf("%v: decoded apply: %v", alg, err)
		}
	}
	// Hand-assembled deltas (kind unset) must still classify correctly.
	hand := &Delta{Algorithm: HuntMcIlroy, Ops: []Op{{Kind: OpCopy, BaseStart: 1, BaseEnd: 3}}}
	if !hand.isBlockMove() {
		t.Fatal("hand-built delta with OpCopy not classified as block-move")
	}
	hand2 := &Delta{Algorithm: TichyBlockMove}
	if !hand2.isBlockMove() {
		t.Fatal("hand-built tichy delta not classified as block-move")
	}
}

// TestHuntFallbackMatchesMyers checks the pathological-density fallback
// contract: when Hunt–McIlroy delegates its trimmed middle to Myers, the
// resulting matches must be exactly what the Myers front door produces.
func TestHuntFallbackMatchesMyers(t *testing.T) {
	// > 1<<22 match pairs: 2100 x 2100 identical middle lines, wrapped in
	// distinct affixes so the trim leaves a dense middle.
	mid := strings.Repeat("same\n", 2100)
	a := SplitLines([]byte("head-a\n" + mid + "tail-a\n"))
	b := SplitLines([]byte("head-b\n" + mid + mid + "tail-b\n"))

	// Confirm this input really takes the fallback.
	sa, sb, nsym := new(hmScratch).internBoth(JoinLines(a), JoinLines(b))
	prefix, suffix := commonAffixes(sa, sb)
	if _, ok := huntMiddle(sa[prefix:len(sa)-suffix], sb[prefix:len(sb)-suffix], nsym, new(hmScratch)); ok {
		t.Fatal("test input did not trigger the density fallback")
	}

	hunt := lineMatches(huntMcIlroyMatches, a, b)
	myers := lineMatches(myersMatches, a, b)
	if len(hunt) != len(myers) {
		t.Fatalf("fallback matches differ: hunt %d runs, myers %d runs", len(hunt), len(myers))
	}
	for i := range hunt {
		if hunt[i] != myers[i] {
			t.Fatalf("run %d: hunt %+v != myers %+v", i, hunt[i], myers[i])
		}
	}
	total := 0
	for _, m := range hunt {
		total += m.n
	}
	if want := naiveLCSLenFast(len(a), len(b)); total > want {
		t.Fatalf("LCS length %d exceeds upper bound %d", total, want)
	}
}

// naiveLCSLenFast is the trivial upper bound min(len(a), len(b)) — enough to
// sanity-check the fallback without an O(nm) table on 4k-line inputs.
func naiveLCSLenFast(la, lb int) int {
	if la < lb {
		return la
	}
	return lb
}

// TestInternHashCollisions forces every line into the same table stride by
// using many distinct lines; correctness must come from the byte-compare
// fallback, not hash uniqueness.
func TestInternHashCollisions(t *testing.T) {
	var sbA, sbB strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sbA, "line-%d\n", i)
		fmt.Fprintf(&sbB, "line-%d\n", i*2)
	}
	a := SplitLines([]byte(sbA.String()))
	b := SplitLines([]byte(sbB.String()))
	sa, sb, nsym := new(hmScratch).internBoth(JoinLines(a), JoinLines(b))
	// Distinct lines must get distinct symbols and equal lines equal ones.
	bySym := make(map[int][]byte, nsym)
	check := func(lines [][]byte, syms []int) {
		for i, s := range syms {
			if prev, ok := bySym[s]; ok {
				if !bytes.Equal(prev, lines[i]) {
					t.Fatalf("symbol %d maps to %q and %q", s, prev, lines[i])
				}
			} else {
				bySym[s] = lines[i]
			}
		}
	}
	check(a, sa)
	check(b, sb)
	if len(bySym) != nsym {
		t.Fatalf("nsym %d != distinct symbols %d", nsym, len(bySym))
	}
}

// applyInto applies d to a base given as segments — their concatenation, in
// order — the way the server's arrival path does: ApplyInPlace on the
// segments with their chained sum, ApplyWhole on a joined copy for what it
// declines, then CheckTarget.
func applyInto(d *Delta, base [][]byte) ([]byte, []chunk.Span, error) {
	out, spans, err := d.ApplyInPlace(nil, nil, base, ChecksumSegments(base))
	if err == ErrNeedsWholeBase {
		out, err = d.ApplyWhole(JoinLines(base))
	}
	if err == nil {
		err = d.CheckTarget(out)
	}
	if err != nil {
		return nil, nil, err
	}
	return out, spans, nil
}

// segmentations cuts base into segments several ways, each one a base
// applyInto must treat exactly as the contiguous bytes: cuts at random
// places (mostly inside lines), one segment per line (cuts on newlines),
// chunk-shaped cuts as the server's cache holds a file, empty segments
// between pieces, and — for small files — one byte per segment.
func segmentations(rng *rand.Rand, base []byte) map[string][][]byte {
	cut := func(next func(rest []byte) int) [][]byte {
		var segs [][]byte
		for rest := base; len(rest) > 0; {
			n := min(max(next(rest), 1), len(rest))
			segs = append(segs, rest[:n])
			rest = rest[n:]
		}
		return segs
	}
	out := map[string][][]byte{
		"random": cut(func([]byte) int { return 1 + rng.Intn(200) }),
		"lines":  SplitLines(base),
		"chunks": cut(func(rest []byte) int { return 256 + rng.Intn(4096-256) }),
		"with-empty": func() [][]byte {
			segs := [][]byte{{}}
			for _, s := range cut(func([]byte) int { return 1 + rng.Intn(3000) }) {
				segs = append(segs, s, base[:0])
			}
			return segs
		}(),
	}
	if len(base) <= 8<<10 {
		out["bytes"] = cut(func([]byte) int { return 1 })
	}
	return out
}

// checkSegmented applies d to every segmentation of base and requires what
// the one-segment apply gives: the same output, spans and error.
func checkSegmented(t testing.TB, name string, d *Delta, base []byte, segs map[string][][]byte) {
	t.Helper()
	want, wantSpans, wantErr := applyInto(d, [][]byte{base})
	for how, s := range segs {
		got, spans, err := applyInto(d, s)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s, %s segments: error %v, contiguous %v", name, how, err, wantErr)
		}
		if !bytes.Equal(got, want) || !reflect.DeepEqual(spans, wantSpans) {
			t.Fatalf("%s, %s segments: %d bytes, spans %v; contiguous %d bytes, spans %v",
				name, how, len(got), spans, len(want), wantSpans)
		}
	}
}

// TestApplySegmentedMatchesContiguous: a base in segments — the server
// applies deltas straight from its cached chunks — gives the output, spans
// and errors the contiguous base gives, over the engine corpus for every
// algorithm, against a wrong base, and for hand-built scripts that take the
// sequential fallback or fail.
func TestApplySegmentedMatchesContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := 0
	eachEngineCase(func(name string, base, target []byte) {
		segs := segmentations(rng, base)
		for _, alg := range allAlgorithms {
			d, err := Compute(alg, base, target)
			if err != nil {
				t.Fatal(err)
			}
			checkSegmented(t, fmt.Sprintf("%s %v", name, alg), d, base, segs)
		}
		if len(base) > 0 {
			wrong := bytes.Clone(base)
			wrong[rng.Intn(len(wrong))] ^= 1
			d, _ := Compute(HuntMcIlroy, base, target)
			checkSegmented(t, name+" wrong base", d, wrong, segmentations(rng, wrong))
		}
		cases++
	})
	for _, base := range []string{"", "x", "\n", "a\nb", "a\nb\n", "a\n\nb\n\n", "unterminated\nlast line"} {
		for _, target := range []string{"", "a\n", "b\nc", "a\nX\nb\n", base + "tail\n"} {
			d, err := Compute(HuntMcIlroy, []byte(base), []byte(target))
			if err != nil {
				t.Fatal(err)
			}
			checkSegmented(t, fmt.Sprintf("%q -> %q", base, target), d, []byte(base), segmentations(rng, []byte(base)))
			cases++
		}
	}
	for _, base := range [][]byte{[]byte("a\nb\nc\nd\ne"), []byte("a\nb\nc\nd\ne\n")} {
		for name, ops := range map[string][]Op{
			"ascending":        {{Kind: OpDelete, BaseStart: 1, BaseEnd: 1}, {Kind: OpDelete, BaseStart: 2, BaseEnd: 2}},
			"overlapping":      {{Kind: OpChange, BaseStart: 2, BaseEnd: 4, Lines: [][]byte{[]byte("X\n")}}, {Kind: OpChange, BaseStart: 1, BaseEnd: 2, Lines: [][]byte{[]byte("Y\n")}}},
			"delete past end":  {{Kind: OpDelete, BaseStart: 5, BaseEnd: 6}},
			"insert past end":  {{Kind: OpInsert, BaseStart: 6, Lines: [][]byte{[]byte("f\n")}}},
			"change last line": {{Kind: OpChange, BaseStart: 5, BaseEnd: 5, Lines: [][]byte{[]byte("E\n")}}},
			"append at end":    {{Kind: OpInsert, BaseStart: 5, Lines: [][]byte{[]byte("\nf")}}},
			"bad kind":         {{Kind: OpKind(9), BaseStart: 1, BaseEnd: 1}},
		} {
			// The reference is ed's semantics, op by op: the fast path must
			// take only what it would rebuild the same way.
			want, seqErr := applyEditsSequential(ops, SplitLines(base))
			d := &Delta{Ops: ops, BaseLen: len(base), BaseSum: Checksum(base), TargetLen: len(want), TargetSum: Checksum(want)}
			got, _, err := applyInto(d, [][]byte{base})
			if seqErr != nil && !errors.Is(err, ErrCorruptDelta) || seqErr == nil && (err != nil || !bytes.Equal(got, want)) {
				t.Fatalf("%s on %q: %q, %v; ed semantics give %q, %v", name, base, got, err, want, seqErr)
			}
			checkSegmented(t, name, d, base, segmentations(rng, base))
			cases++
		}
	}
	t.Logf("%d cases", cases)
}
