package core

import (
	"testing"

	"shadowedit/internal/diff"
	"shadowedit/internal/wire"
	"shadowedit/internal/workload"
)

var sink []byte

// BenchmarkApplyDelta is the receiver's half of a delta transfer: decode,
// verify both checksums and rebuild the target.
//
//	go test -run NONE -bench ApplyDelta -benchmem ./internal/core
func BenchmarkApplyDelta(b *testing.B) {
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
		target := g.Modify(base, tc.pct, workload.EditReplace)
		d, err := diff.Compute(diff.HuntMcIlroy, base, target)
		if err != nil {
			b.Fatal(err)
		}
		fd := &wire.FileDelta{BaseVersion: 1, Version: 2, Encoded: d.Encode()}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(target)))
			for i := 0; i < b.N; i++ {
				out, err := ApplyDelta(base, fd)
				if err != nil {
					b.Fatal(err)
				}
				sink = out
			}
		})
	}
}
