package server

import (
	"testing"

	"shadowedit/internal/diff"
	"shadowedit/internal/wire"
	"shadowedit/internal/workload"
)

// BenchmarkIngestDelta is the server's half of a warm FILE_DELTA without the
// session around it: read the resident base, apply the delta, store the
// result in the cache. Each iteration upgrades the entry by one version,
// alternating between two contents so every delta finds its base. Run with
//
//	go test -run NONE -bench IngestDelta -benchmem ./internal/server
func BenchmarkIngestDelta(b *testing.B) {
	// Poisoning released buffers is a test's aid, not part of the path.
	defer func(on bool) { poisonFileBufs = on }(poisonFileBufs)
	poisonFileBufs = false
	for _, tc := range []struct {
		name string
		size int
		pct  float64
	}{
		{"8k/5pct", 8 << 10, 5},
		{"32k/5pct", 32 << 10, 5},
		{"256k/1pct", 256 << 10, 1},
	} {
		g := workload.NewGenerator(1)
		base := g.File(tc.size)
		target := g.Modify(base, tc.pct, workload.EditReplace)
		var encoded [2][]byte
		for i, pair := range [2][2][]byte{{base, target}, {target, base}} {
			d, err := diff.Compute(diff.HuntMcIlroy, pair[0], pair[1])
			if err != nil {
				b.Fatal(err)
			}
			encoded[i] = d.Encode()
		}
		b.Run(tc.name, func(b *testing.B) {
			s := New(Defaults("bench"))
			fd := &wire.FileDelta{File: wire.FileRef{Domain: "bench", FileID: "data"}}
			id := s.dir.Intern(fd.File)
			if err := s.cache.Put(id, 1, base); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(base)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fd.BaseVersion, fd.Version, fd.Encoded = uint64(i+1), uint64(i+2), encoded[i%2]
				fb, err := s.applyDelta(id, fd, false)
				if err != nil {
					b.Fatal(err)
				}
				fb.release()
			}
		})
	}
}
