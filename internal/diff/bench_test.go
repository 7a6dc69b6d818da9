package diff

import (
	"bytes"
	"fmt"
	"testing"
)

// Microbenchmarks for the differencing hot path: Compute and Apply per
// algorithm across file sizes and edit percentages. Run with
//
//	go test -bench=BenchmarkDiff -benchmem ./internal/diff
//
// These are the numbers the shadow protocol lives on: every edit-submit
// cycle computes one delta on the workstation and applies it on the
// supercomputer, so allocs/op here are GC pressure on both ends.

// benchRNG is a tiny deterministic xorshift generator so the benchmarks do
// not depend on other packages (workload imports diff).
type benchRNG uint64

func (r *benchRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = benchRNG(x)
	return x
}

func (r *benchRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// benchFile builds a synthetic text file of roughly size bytes with
// line-level variety comparable to program text.
func benchFile(size int, seed uint64) []byte {
	rng := benchRNG(seed | 1)
	var buf bytes.Buffer
	for i := 0; buf.Len() < size; i++ {
		fmt.Fprintf(&buf, "line %06d tok%d val=%d pad-%d\n",
			i, rng.intn(64), rng.intn(100000), rng.intn(9))
	}
	return buf.Bytes()
}

// benchModify edits roughly pct percent of the file's lines with a mix of
// replacements, deletions and insertions.
func benchModify(content []byte, pct int, seed uint64) []byte {
	rng := benchRNG(seed | 1)
	lines := SplitLines(content)
	out := make([][]byte, 0, len(lines)+len(lines)*pct/300)
	for i, l := range lines {
		if rng.intn(100) < pct {
			switch rng.intn(3) {
			case 0: // replace
				out = append(out, []byte(fmt.Sprintf("edited %06d v%d\n", i, rng.intn(1000))))
			case 1: // delete
			case 2: // insert before
				out = append(out, []byte(fmt.Sprintf("added %06d v%d\n", i, rng.intn(1000))), l)
			}
			continue
		}
		out = append(out, l)
	}
	return JoinLines(out)
}

// benchRewriteLine overwrites the text of line i (lines holds line starts and
// the file's length) with fresh letters, keeping its length and its newline.
func benchRewriteLine(rng *benchRNG, content []byte, lines []int, i int) {
	for j := lines[i]; j < lines[i+1]-1; j++ {
		content[j] = byte('a' + rng.intn(26))
	}
}

// benchLineStarts returns the offset of every line start plus len(content).
func benchLineStarts(content []byte) []int {
	starts := []int{0}
	for i, c := range content {
		if c == '\n' {
			starts = append(starts, i+1)
		}
	}
	return starts
}

// benchInplace rewrites pct percent of the lines in place in runs of at most
// eight, the shape of the benchmark's edit-large workload (bench/gen.go).
func benchInplace(content []byte, pct int, seed uint64) []byte {
	rng := benchRNG(seed | 1)
	out := bytes.Clone(content)
	lines := benchLineStarts(out)
	for n := (len(lines) - 1) * pct / 100; n > 0; {
		run := min(n, 8)
		first := rng.intn(len(lines) - run)
		for i := first; i < first+run; i++ {
			benchRewriteLine(&rng, out, lines, i)
		}
		n -= run
	}
	return out
}

// benchMoved deletes pct percent of the lines and inserts as many fresh ones
// at unrelated places: what sort does to an in-place edit of its input, the
// shape of the output-large workload's output.
func benchMoved(content []byte, pct int, seed uint64) []byte {
	rng := benchRNG(seed | 1)
	lines := SplitLines(content)
	n := len(lines) * pct / 100
	for i := 0; i < n; i++ {
		at := rng.intn(len(lines))
		lines = append(lines[:at], lines[at+1:]...)
	}
	for i := 0; i < n; i++ {
		at := rng.intn(len(lines) + 1)
		l := []byte(fmt.Sprintf("moved %06d v%d\n", i, rng.intn(100000)))
		lines = append(lines[:at], append([][]byte{l}, lines[at:]...)...)
	}
	return JoinLines(lines)
}

// benchCases: the 1pct cells and the in-place and moved shapes the end-to-end
// workloads exercise are the sparse edits the front end (anchoredOps) is for;
// the dense 20pct cells leave it few anchors and guard its cost where the
// engine does nearly all the work. The 8k and 32k cells are edit-small's and
// cluster-2's files (bench/workloads.go) in the benchmark's own line shape
// (genFile): one edited region in 8 KiB, four in 32 KiB.
var benchCases = []benchCase{
	{"10k/1pct", 10 << 10, false, func(c []byte) []byte { return benchModify(c, 1, 0xBEEF) }},
	{"100k/1pct", 100 << 10, false, func(c []byte) []byte { return benchModify(c, 1, 0xBEEF) }},
	{"100k/20pct", 100 << 10, false, func(c []byte) []byte { return benchModify(c, 20, 0xBEEF) }},
	{"500k/20pct", 500 << 10, false, func(c []byte) []byte { return benchModify(c, 20, 0xBEEF) }},
	{"8k/5pct-inplace", 8 << 10, true, func(c []byte) []byte { return benchInplace(c, 5, 0xBEEF) }},
	{"32k/5pct-multiregion", 32 << 10, true, func(c []byte) []byte { return benchInplace(c, 5, 0xBEEF) }},
	{"256k/1pct-inplace", 256 << 10, false, func(c []byte) []byte { return benchInplace(c, 1, 0xBEEF) }},
	{"256k/1pct-moved", 256 << 10, false, func(c []byte) []byte { return benchMoved(c, 1, 0xBEEF) }},
}

type benchCase struct {
	name   string
	size   int
	gen    bool // genFile's lines rather than benchFile's
	modify func(content []byte) []byte
}

func (tc benchCase) base() []byte {
	if tc.gen {
		rng := benchRNG(0xC0FFEE)
		return genFile(&rng, tc.size)
	}
	return benchFile(tc.size, 0xC0FFEE)
}

func BenchmarkDiffCompute(b *testing.B) {
	for _, alg := range allAlgorithms {
		for _, tc := range benchCases {
			base := tc.base()
			target := tc.modify(base)
			b.Run(fmt.Sprintf("%v/%s", alg, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(base)))
				for i := 0; i < b.N; i++ {
					if _, err := Compute(alg, base, target); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkDiffApply(b *testing.B) {
	for _, alg := range allAlgorithms {
		for _, tc := range benchCases {
			base := tc.base()
			target := tc.modify(base)
			d, err := Compute(alg, base, target)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%v/%s", alg, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(base)))
				for i := 0; i < b.N; i++ {
					got, err := d.Apply(base)
					if err != nil {
						b.Fatal(err)
					}
					if len(got) != len(target) {
						b.Fatal("wrong output length")
					}
				}
			})
		}
	}
}

func BenchmarkDiffWireSize(b *testing.B) {
	base := benchFile(100<<10, 0xC0FFEE)
	target := benchModify(base, 20, 0xBEEF)
	for _, alg := range allAlgorithms {
		d, err := Compute(alg, base, target)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d.WireSize() == 0 {
					b.Fatal("empty wire size")
				}
			}
		})
	}
}
