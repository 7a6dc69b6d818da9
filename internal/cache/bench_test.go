package cache

import (
	"testing"

	"shadowedit/internal/chunk"
	"shadowedit/internal/diff"
	"shadowedit/internal/workload"
)

// BenchmarkCachePut stores alternating versions of one file, the steady state
// of an edit–submit cycle: "full" splits and hashes the whole file on every
// put, "from-base" derives the manifest from the resident version and the
// delta's spans. Run with
//
//	go test -run NONE -bench CachePut -benchmem ./internal/cache
func BenchmarkCachePut(b *testing.B) {
	for _, tc := range []struct {
		name string
		size int
		pct  float64
	}{
		{"8k/5pct", 8 << 10, 5},
		{"256k/1pct", 256 << 10, 1},
	} {
		g := workload.NewGenerator(1)
		base := g.File(tc.size)
		d, err := diff.Compute(diff.HuntMcIlroy, base, g.Modify(base, tc.pct, workload.EditReplace))
		if err != nil {
			b.Fatal(err)
		}
		target, forward, err := d.ApplySpans(base)
		if err != nil {
			b.Fatal(err)
		}
		// Going back rewrites the same stretches the other way round.
		back := make([]chunk.Span, len(forward))
		for i, s := range forward {
			back[i] = chunk.Span{BaseStart: s.TargetStart, BaseEnd: s.TargetEnd, TargetStart: s.BaseStart, TargetEnd: s.BaseEnd}
		}
		versions := [2][]byte{target, base}
		spans := [2][]chunk.Span{forward, back}

		b.Run(tc.name+"/full", func(b *testing.B) {
			c := New(0, LRU)
			_ = c.Put(1, 1, base)
			b.ReportAllocs()
			b.SetBytes(int64(len(target)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Put(1, uint64(i+2), versions[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/from-base", func(b *testing.B) {
			c := New(0, LRU)
			_ = c.Put(1, 1, base)
			b.ReportAllocs()
			b.SetBytes(int64(len(target)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.PutFromBase(1, uint64(i+1), uint64(i+2), versions[i%2], diff.Checksum(versions[i%2]), spans[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
