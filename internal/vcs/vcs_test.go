package vcs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"shadowedit/internal/diff"
	"shadowedit/internal/wire"
)

var ref = wire.FileRef{Domain: "dom", FileID: "h:/u/heat.f"}

func TestCommitVersionsAscend(t *testing.T) {
	s := NewStore(10)
	v1, ch1 := s.Commit(ref, []byte("one\n"))
	v2, ch2 := s.Commit(ref, []byte("two\n"))
	v3, ch3 := s.Commit(ref, []byte("three\n"))
	if !ch1 || !ch2 || !ch3 {
		t.Fatal("changed flags wrong")
	}
	if v1 != 1 || v2 != 2 || v3 != 3 {
		t.Fatalf("versions = %d,%d,%d, want 1,2,3", v1, v2, v3)
	}
	head, ok := s.Head(ref)
	if !ok || head.Number != 3 || string(head.Content) != "three\n" {
		t.Fatalf("head = %+v", head)
	}
}

func TestCommitUnchangedContentNoNewVersion(t *testing.T) {
	s := NewStore(10)
	v1, _ := s.Commit(ref, []byte("same\n"))
	v2, changed := s.Commit(ref, []byte("same\n"))
	if changed {
		t.Fatal("identical commit reported changed")
	}
	if v2 != v1 {
		t.Fatalf("identical commit bumped version: %d -> %d", v1, v2)
	}
	if st := s.Stats(); st.Versions != 1 {
		t.Fatalf("versions stored = %d, want 1", st.Versions)
	}
}

func TestGetSpecificVersions(t *testing.T) {
	s := NewStore(10)
	s.Commit(ref, []byte("a\n"))
	s.Commit(ref, []byte("b\n"))
	v, err := s.Get(ref, 1)
	if err != nil || string(v.Content) != "a\n" {
		t.Fatalf("Get(1) = %+v, %v", v, err)
	}
	if _, err := s.Get(ref, 9); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("Get(9) err = %v, want ErrVersionGone", err)
	}
	if _, err := s.Get(wire.FileRef{Domain: "x", FileID: "y"}, 1); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("Get(unknown) err = %v, want ErrUnknownFile", err)
	}
}

func TestDeltaFromReconstructs(t *testing.T) {
	s := NewStore(10)
	base := []byte("l1\nl2\nl3\n")
	next := []byte("l1\nl2 edited\nl3\nl4\n")
	s.Commit(ref, base)
	s.Commit(ref, next)
	d, err := s.DeltaFrom(ref, 1, 2, diff.HuntMcIlroy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Apply(base)
	if err != nil || !bytes.Equal(got, next) {
		t.Fatalf("delta apply = %q, %v", got, err)
	}
	// The sums the store supplies are the ones Compute would take itself.
	if want, _ := diff.Compute(diff.HuntMcIlroy, base, next); d.BaseSum != want.BaseSum || d.TargetSum != want.TargetSum {
		t.Fatalf("stored sums %08x %08x, computed %08x %08x", d.BaseSum, d.TargetSum, want.BaseSum, want.TargetSum)
	}
}

func TestDeltaFromSkipsIntermediateVersions(t *testing.T) {
	// Server holds v1; client is at v4: one delta bridges them.
	s := NewStore(10)
	contents := [][]byte{[]byte("a\n"), []byte("a\nb\n"), []byte("a\nb\nc\n"), []byte("a\nZ\nc\n")}
	for _, c := range contents {
		s.Commit(ref, c)
	}
	d, err := s.DeltaFrom(ref, 1, 4, diff.Myers)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Apply(contents[0])
	if err != nil || !bytes.Equal(got, contents[3]) {
		t.Fatalf("cross-version delta broken: %v", err)
	}
}

func TestAckPrunesOldVersions(t *testing.T) {
	s := NewStore(0)
	for i := 1; i <= 5; i++ {
		s.Commit(ref, []byte(fmt.Sprintf("content v%d\n", i)))
	}
	// Nothing acked: with retain 0 only protected versions survive; head
	// is protected, acked (none) adds nothing.
	vs := s.Versions(ref)
	if len(vs) != 1 || vs[0] != 5 {
		t.Fatalf("pre-ack versions = %v, want [5]", vs)
	}
	s.Commit(ref, []byte("content v6\n"))
	s.Ack(ref, 6)
	vs = s.Versions(ref)
	if len(vs) != 1 || vs[0] != 6 {
		t.Fatalf("post-ack versions = %v, want [6]", vs)
	}
}

func TestAckedVersionSurvivesPruning(t *testing.T) {
	s := NewStore(0)
	s.Commit(ref, []byte("v1\n"))
	s.Ack(ref, 1)
	s.Commit(ref, []byte("v2\n"))
	s.Commit(ref, []byte("v3\n"))
	vs := s.Versions(ref)
	// v1 (acked, server's base) and v3 (head) must survive; v2 may go.
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 3 {
		t.Fatalf("versions = %v, want [1 3]", vs)
	}
	// The delta the server will ask for (1 -> 3) must be computable.
	if _, err := s.DeltaFrom(ref, 1, 3, diff.HuntMcIlroy); err != nil {
		t.Fatalf("DeltaFrom(acked, head): %v", err)
	}
	// v2 must be gone (retain 0).
	if _, err := s.Get(ref, 2); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("Get(2) err = %v, want ErrVersionGone", err)
	}
}

func TestRetentionLimitKeepsExtraVersions(t *testing.T) {
	s := NewStore(2)
	for i := 1; i <= 6; i++ {
		s.Commit(ref, []byte(fmt.Sprintf("v%d\n", i)))
	}
	s.Ack(ref, 6)
	vs := s.Versions(ref)
	// Protected: 6 (head+acked). Retained extras: 2 newest prunable (4,5).
	if len(vs) != 3 || vs[0] != 4 || vs[1] != 5 || vs[2] != 6 {
		t.Fatalf("versions = %v, want [4 5 6]", vs)
	}
}

func TestSetRetainTightensOnNextOp(t *testing.T) {
	s := NewStore(5)
	for i := 1; i <= 5; i++ {
		s.Commit(ref, []byte(fmt.Sprintf("v%d\n", i)))
	}
	s.SetRetain(0)
	s.Ack(ref, 5)
	if vs := s.Versions(ref); len(vs) != 1 {
		t.Fatalf("versions after tightening = %v, want just head", vs)
	}
}

func TestAckBeyondHeadClamps(t *testing.T) {
	s := NewStore(0)
	s.Commit(ref, []byte("v1\n"))
	s.Ack(ref, 99)
	if got := s.Acked(ref); got != 1 {
		t.Fatalf("Acked = %d, want clamped 1", got)
	}
}

func TestAckUnknownFileIsNoop(t *testing.T) {
	s := NewStore(0)
	s.Ack(ref, 1) // must not panic
	if s.Acked(ref) != 0 {
		t.Fatal("Ack invented state for unknown file")
	}
}

func TestAckNeverRegresses(t *testing.T) {
	s := NewStore(3)
	s.Commit(ref, []byte("v1\n"))
	s.Commit(ref, []byte("v2\n"))
	s.Ack(ref, 2)
	s.Ack(ref, 1)
	if got := s.Acked(ref); got != 2 {
		t.Fatalf("Acked regressed to %d", got)
	}
}

func TestForget(t *testing.T) {
	s := NewStore(1)
	s.Commit(ref, []byte("x\n"))
	s.Forget(ref)
	if _, ok := s.Head(ref); ok {
		t.Fatal("Head found forgotten file")
	}
	if len(s.Files()) != 0 {
		t.Fatal("Files lists forgotten file")
	}
}

func TestFilesLists(t *testing.T) {
	s := NewStore(1)
	refs := []wire.FileRef{
		{Domain: "d", FileID: "a"},
		{Domain: "d", FileID: "b"},
	}
	for _, r := range refs {
		s.Commit(r, []byte("x\n"))
	}
	got := s.Files()
	if len(got) != 2 {
		t.Fatalf("Files = %v", got)
	}
}

func TestHeadReturnsCopy(t *testing.T) {
	s := NewStore(1)
	s.Commit(ref, []byte("abc\n"))
	h, _ := s.Head(ref)
	h.Content[0] = 'X'
	h2, _ := s.Head(ref)
	if string(h2.Content) != "abc\n" {
		t.Fatal("Head aliases internal storage")
	}
}

func TestDeltaFromPrunedBaseFails(t *testing.T) {
	s := NewStore(0)
	s.Commit(ref, []byte("v1\n"))
	s.Commit(ref, []byte("v2\n"))
	s.Commit(ref, []byte("v3\n")) // v1, v2 pruned (nothing acked)
	if _, err := s.DeltaFrom(ref, 1, 3, diff.HuntMcIlroy); !errors.Is(err, ErrVersionGone) {
		t.Fatalf("err = %v, want ErrVersionGone", err)
	}
}

func TestStats(t *testing.T) {
	s := NewStore(0)
	s.Commit(ref, []byte("aaaa\n"))
	s.Commit(ref, []byte("bbbb\n"))
	st := s.Stats()
	if st.Committed != 2 || st.Files != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Pruned != 1 { // v1 pruned on second commit
		t.Fatalf("pruned = %d, want 1", st.Pruned)
	}
	if st.Bytes != 5 {
		t.Fatalf("bytes = %d, want 5", st.Bytes)
	}
}

func TestPropertyInvariantsUnderRandomOps(t *testing.T) {
	// Invariants under random commit/ack streams:
	//  1. head is always retained;
	//  2. the newest acked version is always retained;
	//  3. DeltaFrom(acked, head) always succeeds when acked > 0;
	//  4. retained version count <= 2 + retain.
	rng := rand.New(rand.NewSource(17))
	for _, retain := range []int{0, 1, 3} {
		s := NewStore(retain)
		var head uint64
		for op := 0; op < 1000; op++ {
			if head == 0 || rng.Intn(3) > 0 {
				v, _ := s.Commit(ref, []byte(fmt.Sprintf("content %d\n", rng.Intn(1000))))
				head = v
			} else {
				s.Ack(ref, uint64(rng.Intn(int(head)))+1)
			}
			h, ok := s.Head(ref)
			if !ok || h.Number != head {
				t.Fatalf("op %d: head lost (have %v)", op, h.Number)
			}
			if acked := s.Acked(ref); acked > 0 {
				if _, err := s.Get(ref, acked); err != nil {
					t.Fatalf("op %d: acked version %d pruned: %v", op, acked, err)
				}
				if _, err := s.DeltaFrom(ref, acked, head, diff.HuntMcIlroy); err != nil {
					t.Fatalf("op %d: DeltaFrom(acked=%d, head=%d): %v", op, acked, head, err)
				}
			}
			if n := len(s.Versions(ref)); n > 2+retain {
				t.Fatalf("op %d: %d versions retained, limit %d", op, n, 2+retain)
			}
		}
	}
}

func TestConcurrentCommitsDistinctFiles(t *testing.T) {
	s := NewStore(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := wire.FileRef{Domain: "d", FileID: fmt.Sprintf("f%d", g)}
			for i := 0; i < 100; i++ {
				v, _ := s.Commit(r, []byte(fmt.Sprintf("%d-%d\n", g, i)))
				if i%10 == 0 {
					s.Ack(r, v)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(s.Files()); got != 8 {
		t.Fatalf("files = %d, want 8", got)
	}
	for g := 0; g < 8; g++ {
		r := wire.FileRef{Domain: "d", FileID: fmt.Sprintf("f%d", g)}
		h, ok := s.Head(r)
		if !ok || h.Number != 100 {
			t.Fatalf("file %d head = %v", g, h.Number)
		}
	}
}
