package chunk_test

import (
	"testing"

	"shadowedit/internal/chunk"
	"shadowedit/internal/diff"
	"shadowedit/internal/workload"
)

// The three ways to a manifest, at the benchmark's file shapes (scattered
// same-length line rewrites; 64k/2pct is chunk-pressure's): Split hashes every
// byte, Resplit (the server's, from an apply's spans) and SplitFrom (the
// client's, from the previous version) only what the edit touched. Run with
//
//	go test -run NONE -bench 'Split' -benchmem ./internal/chunk
var benchCases = []struct {
	name string
	size int
	pct  float64
}{
	{"8k/5pct", 8 << 10, 5},
	{"64k/2pct", 64 << 10, 2},
	{"256k/1pct", 256 << 10, 1},
}

var sink chunk.Manifest

func BenchmarkSplit(b *testing.B) {
	for _, tc := range benchCases {
		g := workload.NewGenerator(1)
		target := g.Modify(g.File(tc.size), tc.pct, workload.EditReplace)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(target)))
			for i := 0; i < b.N; i++ {
				sink = chunk.Split(target, chunk.DefaultParams)
			}
		})
	}
}

func BenchmarkResplit(b *testing.B) {
	for _, tc := range benchCases {
		g := workload.NewGenerator(1)
		base := g.File(tc.size)
		target := g.Modify(base, tc.pct, workload.EditReplace)
		d, err := diff.Compute(diff.HuntMcIlroy, base, target)
		if err != nil {
			b.Fatal(err)
		}
		_, spans, err := d.ApplySpans(base)
		if err != nil {
			b.Fatal(err)
		}
		m := chunk.Split(base, chunk.DefaultParams)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(target)))
			for i := 0; i < b.N; i++ {
				var ok bool
				if sink, _, ok = chunk.Resplit(m, target, spans, chunk.DefaultParams); !ok {
					b.Fatal("Resplit refused")
				}
			}
		})
	}
}

func BenchmarkSplitFrom(b *testing.B) {
	for _, tc := range benchCases {
		g := workload.NewGenerator(1)
		base := g.File(tc.size)
		target := g.Modify(base, tc.pct, workload.EditReplace)
		m := chunk.Split(base, chunk.DefaultParams)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(target)))
			for i := 0; i < b.N; i++ {
				sink = chunk.SplitFrom(m, base, target, chunk.DefaultParams)
			}
		})
	}
}
