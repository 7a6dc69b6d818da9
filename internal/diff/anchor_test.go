package diff

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"shadowedit/internal/workload"
)

// Tests of the byte-level front end (anchor.go). The reference throughout is
// the engine alone: both files split whole and handed to the LCS engine, which
// is what Compute did before the front end existed.

var lcsEngines = map[Algorithm]func(a, b [][]byte) []match{
	HuntMcIlroy: huntMcIlroyMatches,
	Myers:       myersMatches,
}

// engineOps is the delta's ops with no front end.
func engineOps(alg Algorithm, base, target []byte) []Op {
	a, b := SplitLines(base), SplitLines(target)
	ops := appendOps(nil, lcsEngines[alg](a, b), len(a), b, 0)
	slices.Reverse(ops)
	return ops
}

// engineWireSize is the encoded size of the delta the engine alone produces.
func engineWireSize(alg Algorithm, base, target []byte) int {
	d := Delta{Algorithm: alg, Ops: engineOps(alg, base, target), BaseLen: len(base), TargetLen: len(target)}
	return d.WireSize()
}

// sameOps compares op lists, taking nil and empty as equal.
func sameOps(x, y []Op) bool {
	return len(x) == 0 && len(y) == 0 || reflect.DeepEqual(x, y)
}

// roundTripAll checks, for every algorithm, that the delta and its wire form
// both rebuild target from base.
func roundTripAll(t testing.TB, base, target []byte) {
	t.Helper()
	for _, alg := range allAlgorithms {
		d, err := Compute(alg, base, target)
		if err != nil {
			t.Fatalf("%v: Compute: %v", alg, err)
		}
		got, err := d.Apply(base)
		if err != nil {
			t.Fatalf("%v: Apply: %v", alg, err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("%v: Apply produced wrong bytes", alg)
		}
		d2, err := Decode(d.Encode())
		if err != nil {
			t.Fatalf("%v: Decode: %v", alg, err)
		}
		got2, err := d2.Apply(base)
		if err != nil || !bytes.Equal(got2, target) {
			t.Fatalf("%v: decoded delta broken: %v", alg, err)
		}
	}
}

// checkExact checks the round trip and that both LCS algorithms produce
// exactly the engine's ops. It holds wherever the LCS is unique: files of
// distinct lines whose matching lines do not cross.
func checkExact(t *testing.T, name string, base, target []byte) {
	t.Helper()
	roundTripAll(t, base, target)
	for alg := range lcsEngines {
		d, err := Compute(alg, base, target)
		if err != nil {
			t.Fatal(err)
		}
		if want := engineOps(alg, base, target); !sameOps(d.Ops, want) {
			t.Fatalf("%s %v: %d ops differ from the engine's %d", name, alg, len(d.Ops), len(want))
		}
	}
}

// genFile is the shape bench/gen.go feeds the end-to-end workloads: lines of
// 20 to 94 random lower-case letters in words, every length equally common.
func genFile(rng *benchRNG, size int) []byte {
	out := make([]byte, 0, size+96)
	for i := 0; len(out) < size; i++ {
		for j, n := 0, 20+(i*47)%75; j < n; j++ {
			if j%7 == 6 {
				out = append(out, ' ')
			} else {
				out = append(out, byte('a'+rng.intn(26)))
			}
		}
		out = append(out, '\n')
	}
	return out
}

// editBlocks deletes blocks of lines and inserts blocks of fresh ones, each
// up to maxBlock lines long.
func editBlocks(rng *benchRNG, content []byte, blocks, maxBlock int) []byte {
	lines := SplitLines(content)
	for k := 0; k < blocks; k++ {
		n := 1 + rng.intn(maxBlock)
		if at := rng.intn(len(lines)); at+n <= len(lines) {
			lines = append(lines[:at:at], lines[at+n:]...)
		}
		n = 1 + rng.intn(maxBlock)
		ins := make([][]byte, n)
		for i := range ins {
			ins[i] = []byte(fmt.Sprintf("block %d line %d of %d\n", k, i, rng.intn(1000)))
		}
		at := rng.intn(len(lines) + 1)
		lines = append(lines[:at:at], append(ins, lines[at:]...)...)
	}
	return JoinLines(lines)
}

func TestAnchoredOpsEqualEngineOps(t *testing.T) {
	cases := 0
	for seed := uint64(1); seed <= 24; seed++ {
		rng := benchRNG(seed * 0x9E3779B97F4A7C15)
		size := []int{2 << 10, 8 << 10, 64 << 10, 256 << 10}[seed%4]
		for _, base := range [][]byte{genFile(&rng, size), benchFile(size, seed)} {
			for name, target := range map[string][]byte{
				"inplace-1pct":  benchInplace(base, 1, seed),
				"inplace-5pct":  benchInplace(base, 5, seed),
				"moved-1pct":    benchMoved(base, 1, seed),
				"moved-3pct":    benchMoved(base, 3, seed),
				"blocks":        editBlocks(&rng, base, 3, 12),
				"blocks-wide":   editBlocks(&rng, base, 2, 70), // past the search bound
				"mixed-20pct":   benchModify(base, 20, seed),   // too dense to anchor
				"tail-no-nl":    bytes.TrimSuffix(benchInplace(base, 1, seed), nlByte),
				"tail-appended": append(bytes.Clone(base), "unterminated"...),
			} {
				checkExact(t, fmt.Sprintf("seed %d size %d %s", seed, size, name), base, target)
				cases++
			}
			checkExact(t, "base-no-nl", bytes.TrimSuffix(base, nlByte), benchMoved(base, 1, seed))
		}
		// internal/workload's files and its four edit mixes, as the figures
		// use them.
		g := workload.NewGenerator(int64(seed))
		base := g.File(size)
		for _, kind := range []workload.EditKind{workload.EditReplace, workload.EditMixed, workload.EditInsert, workload.EditDelete} {
			for _, pct := range []float64{1, 5, 20} {
				checkExact(t, fmt.Sprintf("workload seed %d size %d kind %d %v%%", seed, size, kind, pct),
					base, g.Modify(base, pct, kind))
				cases++
			}
		}
	}
	t.Logf("%d cases, ops identical to the engine's", cases)
}

func TestAnchoredRepetitiveCorpus(t *testing.T) {
	type pair struct {
		name         string
		base, target []byte
	}
	var corpus []pair
	// 10 000 identical lines with one unique line inserted.
	same := strings.Repeat("all the same\n", 10000)
	for _, at := range []int{0, 1, 15, 16, 17, 5000, 9999, 10000} {
		corpus = append(corpus, pair{fmt.Sprintf("identical+unique@%d", at),
			[]byte(same), []byte(same[:13*at] + "the unique line\n" + same[13*at:])})
	}
	// A B A B block files: every anchor-length run occurs many times over.
	blockA, blockB := repeatLines("alpha %d\n", 20), repeatLines("beta %d\n", 20)
	abab := strings.Repeat(blockA+blockB, 12)
	corpus = append(corpus,
		pair{"abab drop A", []byte(abab), []byte(abab[len(blockA):])},
		pair{"abab drop inner B", []byte(abab), []byte(strings.Replace(abab, blockA+blockB+blockA, blockA+blockA, 1))},
		pair{"abab insert C", []byte(abab), []byte(strings.Replace(abab, blockB+blockA, blockB+repeatLines("gamma %d\n", 20)+blockA, 1))},
		pair{"abab to baba", []byte(abab), []byte(strings.Repeat(blockB+blockA, 12))},
		pair{"abab edit each A", []byte(abab), []byte(strings.ReplaceAll(abab, "alpha 7\n", "alpha seven\n"))},
	)
	// Long documents over the eight-line alphabet of randomDoc, edited in up
	// to a dozen rounds of mutateDoc.
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 400; i++ {
		base := randomDoc(rng, 50+rng.Intn(800))
		target := base
		for r := rng.Intn(12); r >= 0; r-- {
			target = mutateDoc(rng, target)
		}
		corpus = append(corpus, pair{fmt.Sprintf("small alphabet %d", i), base, target})
	}

	worst, worstName := 0.0, ""
	for _, p := range corpus {
		roundTripAll(t, p.base, p.target)
		for alg := range lcsEngines {
			d, err := Compute(alg, p.base, p.target)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(d.WireSize()) / float64(engineWireSize(alg, p.base, p.target))
			if ratio > worst {
				worst, worstName = ratio, fmt.Sprintf("%s %v", p.name, alg)
			}
			if ratio > 1.10 {
				t.Errorf("%s %v: delta is %.3f x the engine's", p.name, alg, ratio)
			}
		}
	}
	t.Logf("%d pairs; worst delta size against the engine alone: %.3f x (%s)", len(corpus), worst, worstName)
}

func TestAnchoredEdgeCases(t *testing.T) {
	lines := repeatLines
	doc := lines("line %d\n", 200)
	giant := strings.Repeat("no newline anywhere ", 5000)
	for _, tc := range []struct{ name, base, target string }{
		{"empty base", "", doc},
		{"empty target", doc, ""},
		{"both empty", "", ""},
		{"identical", doc, doc},
		{"base without trailing newline", strings.TrimSuffix(doc, "\n"), doc},
		{"target without trailing newline", doc, strings.TrimSuffix(doc, "\n")},
		{"neither with trailing newline", strings.TrimSuffix(doc, "\n"), strings.TrimSuffix(strings.Replace(doc, "line 50\n", "fifty\n", 1), "\n")},
		{"last line grows, no newline", doc + "tail", doc + "tail and more"},
		{"crlf", lines("line %d\r\n", 200), strings.Replace(lines("line %d\r\n", 200), "line 100\r\n", "line 100\n", 1)},
		{"one giant line", giant, giant[:50000] + "X" + giant[50001:]},
		{"giant line gains a newline", giant, giant + "\n"},
		{"append only", doc, doc + lines("more %d\n", 5)},
		{"append past the bound", doc, doc + lines("more %d\n", 100)},
		{"prepend only", doc, lines("more %d\n", 5) + doc},
		{"prepend past the bound", doc, lines("more %d\n", 100) + doc},
		{"delete all but one", doc, "line 77\n"},
		{"first line edited", doc, strings.Replace(doc, "line 0\n", "zero\n", 1)},
		{"last line edited", doc, strings.Replace(doc, "line 199\n", "last\n", 1)},
		{"first and last", doc, "top\n" + strings.Replace(doc, "line 199\n", "", 1)},
		{"every eighth line: denser than the sync length", doc,
			strings.NewReplacer("0\n", "0 edited\n", "8\n", "8 edited\n").Replace(doc)},
		{"two edits closer than the sync length", doc,
			strings.NewReplacer("line 50\n", "fifty\n", "line 60\n", "sixty\n").Replace(doc)},
		{"rewrite wider than the bound", doc, lines("line %d\n", 60) + lines("new %d\n", 70) + doc[strings.Index(doc, "line 130\n"):]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkExact(t, tc.name, []byte(tc.base), []byte(tc.target))
		})
	}
}

// TestAnchoredCostFollowsTheEdit is the front end's claim without a clock: on
// a 256 KiB file with 1% of its lines rewritten, the engine sees at most four
// lines (two per side would be the floor) for each line edited.
func TestAnchoredCostFollowsTheEdit(t *testing.T) {
	rng := benchRNG(7)
	base := genFile(&rng, 256<<10)
	target := benchInplace(base, 1, 7)
	edited := countLines(base) / 100
	for alg, engine := range lcsEngines {
		ops, handed := anchoredOps(base, target, engine, new([][]byte))
		if len(ops) == 0 || handed == 0 {
			t.Fatalf("%v: %d ops, %d lines handed: the edit went unseen", alg, len(ops), handed)
		}
		if handed > 4*edited {
			t.Errorf("%v: engine handed %d lines for %d edited of %d", alg, handed, edited, countLines(base))
		}
		t.Logf("%v: %d of %d lines edited, %d handed to the engine, %d ops", alg, edited, countLines(base), handed, len(ops))
	}
	// Dense edits exhaust the search and hand over (nearly) everything.
	dense := benchModify(base, 20, 7)
	if _, handed := anchoredOps(base, dense, huntMcIlroyMatches, new([][]byte)); handed < countLines(base) {
		t.Errorf("20%% edit handed only %d of %d+%d lines: the fallback did not run", handed, countLines(base), countLines(dense))
	}
}

// hostileFrames are size-byte deltas whose counts claim more than the bytes
// after them could hold, though no more than the whole frame's length.
func hostileFrames(size int) [][]byte {
	header := append([]byte(encodeMagic), byte(HuntMcIlroy), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	// nops = size-1, where a third as many ops would fill the frame.
	ops := binary.AppendUvarint(bytes.Clone(header), uint64(size-1))
	ops = append(ops, make([]byte, size-len(ops))...)
	// Two inserts: one line that takes up nearly the whole frame, then a
	// claim of size-1 lines with nothing behind it.
	claim := binary.AppendUvarint([]byte{byte(OpInsert), 0}, uint64(size-1))
	lines := append(bytes.Clone(header), 2, byte(OpInsert), 0, 1)
	fill := size - len(lines) - len(claim)
	fill -= uvarintLen(uint64(fill))
	lines = binary.AppendUvarint(lines, uint64(fill))
	lines = append(append(lines, make([]byte, fill)...), claim...)
	return [][]byte{ops, lines}
}

// TestDecodeHostileCountsAllocateNothing: a frame whose op or line count
// exceeds what its remaining bytes can hold is rejected before the count sizes
// an allocation. Cap: 4 KiB per Decode of a 1 MiB frame (the Delta, two ops
// and the error); the counts claimed would reserve 56 MiB of ops or 24 MiB of
// line headers.
func TestDecodeHostileCountsAllocateNothing(t *testing.T) {
	for i, frame := range hostileFrames(1 << 20) {
		name := []string{"ops", "lines"}[i]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptDelta) {
			t.Errorf("%s: err = %v, want ErrCorruptDelta", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
			t.Errorf("%s: Decode allocated %d bytes rejecting an over-claiming frame", name, got)
		}
	}
}
