package vcs

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"shadowedit/internal/wire"
)

// commitRead is CommitRead of a reader copying content into the buffer it is
// handed, as naming.Universe.ReadFileInto does.
func commitRead(s *Store, ref wire.FileRef, content []byte, minNumber uint64) (uint64, bool) {
	v, changed, err := s.CommitRead(ref, minNumber, func(dst []byte) ([]byte, error) {
		return append(dst[:0], content...), nil
	})
	if err != nil {
		panic(err)
	}
	return v.Number, changed
}

// readInto is commitRead reporting the buffer the store handed the reader
// and the one the reader handed back.
func readInto(s *Store, ref wire.FileRef, content []byte) (handed, read []byte, v Version, changed bool) {
	v, changed, _ = s.CommitRead(ref, 0, func(dst []byte) ([]byte, error) {
		handed = dst
		read = append(dst[:0], content...)
		return read, nil
	})
	return handed, read, v, changed
}

// spareVersion is version n of a file whose versions all have one length.
func spareVersion(n int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("version %04d\n", n)), 64)
}

// TestRecyclePrunedBuffer: a version pruned with no borrow out is the buffer
// the next read fills.
func TestRecyclePrunedBuffer(t *testing.T) {
	s := NewStore(0)
	commitRead(s, ref, spareVersion(1), 0)
	s.Ack(ref, 1)
	commitRead(s, ref, spareVersion(2), 0)
	v1, _ := s.GetShared(ref, 1)
	s.Ack(ref, 2) // prunes v1
	handed, _, v3, _ := readInto(s, ref, spareVersion(3))
	if p := unsafe.SliceData(v1.Content); unsafe.SliceData(handed) != p || unsafe.SliceData(v3.Content) != p {
		t.Fatal("the read after a prune did not fill the pruned version's buffer")
	}
	if !bytes.Equal(v3.Content, spareVersion(3)) {
		t.Fatal("v3 does not hold what was read")
	}
}

// TestBorrowKeepsPrunedBytes: a version pruned while a borrow is out is left
// to the collector, so the bytes a reader took under the borrow stay that
// version's through any number of later read-commits; once the borrow is
// released, prunes recycle again.
func TestBorrowKeepsPrunedBytes(t *testing.T) {
	s := NewStore(0)
	commitRead(s, ref, spareVersion(1), 0)
	s.Ack(ref, 1)
	commitRead(s, ref, spareVersion(2), 0)
	s.Borrow()
	v1, err := s.GetShared(ref, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Ack(ref, 2) // prunes v1 under the borrow
	if _, err := s.GetShared(ref, 1); err == nil {
		t.Fatal("v1 survived the prune")
	}
	for n := 3; n <= 10; n++ {
		handed, _, _, _ := readInto(s, ref, spareVersion(n))
		if len(handed) > 0 && unsafe.SliceData(handed) == unsafe.SliceData(v1.Content) {
			t.Fatalf("v%d was read into the buffer of v1, pruned under a borrow", n)
		}
		s.Ack(ref, uint64(n))
	}
	if !bytes.Equal(v1.Content, spareVersion(1)) {
		t.Fatal("v1's bytes changed while borrowed")
	}
	s.Release()
	head, _ := s.HeadShared(ref)
	commitRead(s, ref, spareVersion(11), 0)
	s.Ack(ref, 11) // prunes v10 with no borrow out
	if handed, _, _, _ := readInto(s, ref, spareVersion(12)); unsafe.SliceData(handed) != unsafe.SliceData(head.Content) {
		t.Fatal("after Release, the pruned version's buffer was not recycled")
	}
}

// TestUnchangedReadBecomesSpare: a read equal to the head is never committed
// and no reader saw it, so it is the buffer the next read fills.
func TestUnchangedReadBecomesSpare(t *testing.T) {
	s := NewStore(0)
	commitRead(s, ref, spareVersion(1), 0)
	_, read, v, changed := readInto(s, ref, spareVersion(1))
	if changed || v.Number != 1 {
		t.Fatalf("re-reading v1 committed v%d (changed %v)", v.Number, changed)
	}
	if unsafe.SliceData(v.Content) == unsafe.SliceData(read) {
		t.Fatal("an unchanged read replaced the head's bytes")
	}
	if handed, _, _, _ := readInto(s, ref, spareVersion(2)); unsafe.SliceData(handed) != unsafe.SliceData(read) {
		t.Fatal("the next read did not fill the unchanged read's buffer")
	}
}

// TestOneSparePerStore: however many files retire a buffer, the store keeps
// one spare — the largest — and the reads after them find one buffer between
// them.
func TestOneSparePerStore(t *testing.T) {
	s := NewStore(0)
	const files = 64
	refs := make([]wire.FileRef, files)
	largest := 0
	for n := 1; n <= 2; n++ {
		for i := range refs {
			refs[i] = wire.FileRef{Domain: "dom", FileID: fmt.Sprintf("h:/f%02d", i)}
			size := (1 + (i*37)%files) << 10 // in a scrambled order
			largest = max(largest, size)
			commitRead(s, refs[i], bytes.Repeat([]byte{byte(n)}, size), 0)
			if n == 1 {
				s.Ack(refs[i], 1)
			}
		}
	}
	for _, r := range refs {
		s.Ack(r, 2) // prunes v1: every file retires a buffer
	}
	spares := 0
	for _, r := range refs {
		if handed, _, _, _ := readInto(s, r, []byte("v3\n")); handed != nil {
			spares++
			if cap(handed) < largest {
				t.Fatalf("the spare holds %d B, the largest retired buffer %d", cap(handed), largest)
			}
		}
	}
	if spares != 1 {
		t.Fatalf("%d reads found a spare after %d files retired a buffer each, want 1", spares, files)
	}
}
