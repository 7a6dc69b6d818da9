package vcs

import (
	"testing"

	"shadowedit/internal/wire"
	"shadowedit/internal/workload"
)

// BenchmarkCommit commits alternating versions of one file, every commit a
// change: "copy" is Commit, which keeps a private copy of the content,
// "owned" is CommitOwned, which keeps the caller's buffer.
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
		for _, mode := range []struct {
			name   string
			commit func(*Store, wire.FileRef, []byte) (uint64, bool)
		}{
			{"copy", (*Store).Commit},
			{"owned", (*Store).CommitOwned},
		} {
			b.Run(tc.name+"/"+mode.name, func(b *testing.B) {
				s := NewStore(1)
				b.ReportAllocs()
				b.SetBytes(int64(len(base)))
				for i := 0; i < b.N; i++ {
					if _, changed := mode.commit(s, ref, versions[i%2]); !changed {
						b.Fatal("commit saw no change")
					}
				}
			})
		}
	}
}
