package vcs

import (
	"testing"

	"shadowedit/internal/wire"
	"shadowedit/internal/workload"
)

// BenchmarkCommit commits alternating versions of one file, every commit a
// change. Commit copies the content into the buffer the last prune released,
// so the steady state allocates no file-sized buffer.
//
//	go test -run NONE -bench Commit -benchmem ./internal/vcs
func BenchmarkCommit(b *testing.B) {
	ref := wire.FileRef{Domain: "d", FileID: "ws:/f"}
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
		versions := [2][]byte{g.Modify(base, tc.pct, workload.EditReplace), base}
		b.Run(tc.name, func(b *testing.B) {
			s := NewStore(1)
			b.ReportAllocs()
			b.SetBytes(int64(len(base)))
			for i := 0; i < b.N; i++ {
				if _, changed := s.Commit(ref, versions[i%2]); !changed {
					b.Fatal("commit saw no change")
				}
			}
		})
	}
}

// BenchmarkManifestFor is the chunked client's warm cycle, commit and
// answer: a new version is committed (alternating between two) and its
// manifest taken, with the predecessor's manifest memoized and the
// predecessor acknowledged, as in the steady state ("derived",
// chunk.SplitFrom), or with no manifest before it ("split", chunk.Split).
//
//	go test -run NONE -bench ManifestFor -benchmem ./internal/vcs
func BenchmarkManifestFor(b *testing.B) {
	ref := wire.FileRef{Domain: "d", FileID: "ws:/f"}
	for _, tc := range []struct {
		name string
		size int
		pct  float64
	}{
		{"8k/5pct", 8 << 10, 5},
		{"64k/2pct", 64 << 10, 2},
		{"256k/1pct", 256 << 10, 1},
	} {
		g := workload.NewGenerator(1)
		base := g.File(tc.size)
		versions := [2][]byte{g.Modify(base, tc.pct, workload.EditReplace), base}
		for _, mode := range []struct {
			name    string
			derived bool
		}{{"derived", true}, {"split", false}} {
			b.Run(tc.name+"/"+mode.name, func(b *testing.B) {
				s := NewStore(0)
				v, _ := s.Commit(ref, base)
				b.ReportAllocs()
				b.SetBytes(int64(len(base)))
				for i := 0; i < b.N; i++ {
					// An unacknowledged predecessor is pruned at commit;
					// an acknowledged one stays, with its manifest.
					v, _ = s.Commit(ref, versions[i%2])
					if _, _, err := s.ManifestFor(ref, v); err != nil {
						b.Fatal(err)
					}
					if mode.derived {
						s.Ack(ref, v)
					}
				}
			})
		}
	}
}
