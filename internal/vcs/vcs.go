// Package vcs implements the client-side version control of the shadow
// environment (§6.3.2).
//
// "On the client side, the system associates a version number with each
// file. Thus, every time a file is edited, a new version is created and
// identified separately from the previous versions." The server later pulls
// either a delta between the version it holds and the current version, or a
// full copy when no usable base survives.
//
// Retention follows the paper: "To avoid retaining the old versions
// indefinitely, the client deletes older versions after the server
// acknowledges the receipt of a later version. In addition, a user may
// specify, as part of customization, a limit on the number of older versions
// that should be retained at any time."
//
// Safety invariant maintained here: the newest acknowledged version and the
// head version are never pruned, so any Pull the server can legitimately
// issue (base = its cached, acknowledged version) can always be answered
// with a delta.
package vcs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"shadowedit/internal/chunk"
	"shadowedit/internal/diff"
	"shadowedit/internal/race"
	"shadowedit/internal/wire"
)

// Errors reported by the store.
var (
	// ErrUnknownFile reports a file never committed.
	ErrUnknownFile = errors.New("vcs: unknown file")
	// ErrVersionGone reports a version that has been pruned (or never
	// existed); the caller falls back to a full transfer.
	ErrVersionGone = errors.New("vcs: version not retained")
)

// Version is one stored version of a file.
type Version struct {
	Number  uint64
	Content []byte
	Sum     uint32
	// manifest is the version's content-defined chunking, computed lazily
	// (history.manifestAt) and memoized with the version; pruning a version
	// drops its manifest with it.
	manifest chunk.Manifest
}

// Stats counts store activity.
type Stats struct {
	Files     int
	Versions  int
	Committed int64
	Pruned    int64
	Bytes     int64
}

// Store holds version chains for the files a user shadows.
//
// The map is keyed by the FileRef value itself: FileRef is a comparable
// struct, so lookups with a ref in hand cost nothing, where a string key
// would pay a ref.String() allocation on every store operation — several
// times per submit cycle.
type Store struct {
	mu        sync.Mutex
	retain    int
	files     map[wire.FileRef]*history
	committed int64
	pruned    int64
	// spare is a buffer no reader holds, for the next commit to read into:
	// one per store, not per file. borrows counts open Borrow brackets.
	spare   []byte
	borrows int
}

type history struct {
	ref      wire.FileRef
	versions []Version // ascending by Number
	acked    uint64
}

// NewStore creates a store retaining at most retain prunable old versions
// per file beyond the protected ones (head and newest acknowledged).
func NewStore(retain int) *Store {
	if retain < 0 {
		retain = 0
	}
	return &Store{retain: retain, files: make(map[wire.FileRef]*history)}
}

// SetRetain changes the retention limit for subsequent pruning.
func (s *Store) SetRetain(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	s.retain = n
}

// Commit records content as the newest version of ref, returning its version
// number. Committing bytes identical to the current head creates no new
// version and reports changed=false. The store keeps a private copy.
func (s *Store) Commit(ref wire.FileRef, content []byte) (version uint64, changed bool) {
	v, changed, _ := s.CommitRead(ref, 0, func(dst []byte) ([]byte, error) {
		return append(dst[:0], content...), nil
	})
	return v.Number, changed
}

// CommitRead is Commit of the bytes read returns, which read appends to
// dst[:0] — the store's spare buffer, nil when it has none — and hands over:
// they become the new version, returned with its sum (Content is the store's:
// read-only), or, equal to the head, the spare again. The version number is
// at least minNumber, and content equal to a head below it is committed anew:
// a client whose store was freshly created (after a restart without restoring
// state) keeps the numbers the server tracks for the file ascending.
func (s *Store) CommitRead(ref wire.FileRef, minNumber uint64, read func(dst []byte) ([]byte, error)) (Version, bool, error) {
	s.mu.Lock()
	content := s.spare
	s.spare = nil
	s.mu.Unlock()
	content, err := read(content)
	if err != nil {
		return Version{}, false, err
	}
	sum := diff.Checksum(content) // a whole-file pass; not under the lock
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.files[ref]
	if !ok {
		h = &history{ref: ref}
		s.files[ref] = h
	}
	next := max(minNumber, 1)
	if n := len(h.versions); n > 0 {
		head := h.versions[n-1]
		// A sum match is only a hint: content with the head's CRC may
		// still differ from it.
		if head.Number >= minNumber && head.Sum == sum && bytes.Equal(head.Content, content) {
			s.spareLocked(content) // read for this call only: nobody saw it
			return head, false, nil
		}
		next = max(next, head.Number+1)
	}
	v := Version{Number: next, Content: content, Sum: sum}
	h.versions = append(h.versions, v)
	s.committed++
	s.pruneLocked(h)
	return v, true, nil
}

// Borrow opens a read of shared content (HeadShared, GetShared, DeltaFrom,
// GetManifest, ChunkByHash) that may outlast its version — a pull answered
// while an acknowledgement prunes it. Until the matching Release no pruned
// buffer is recycled. The count is the store's, across goroutines.
func (s *Store) Borrow() {
	s.mu.Lock()
	s.borrows++
	s.mu.Unlock()
}

// Release closes a Borrow.
func (s *Store) Release() {
	s.mu.Lock()
	s.borrows--
	s.mu.Unlock()
}

// spareLocked offers b, which no reader holds, as the spare; the larger stays.
func (s *Store) spareLocked(b []byte) {
	if cap(b) > cap(s.spare) {
		s.spare = b
	}
}

// HeadShared returns the newest version of ref. The returned Content is the
// store's own backing array, read-only: nothing writes it while its version
// is retained, and once a prune drops the version the buffer may be read
// into again (CommitRead). So it stays valid while the version is retained,
// or while the caller holds a Borrow taken before the read.
func (s *Store) HeadShared(ref wire.FileRef) (Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.files[ref]
	if !ok || len(h.versions) == 0 {
		return Version{}, false
	}
	return h.versions[len(h.versions)-1], true
}

// GetShared returns a specific retained version of ref; the same read-only
// contract as HeadShared applies: valid while retained or borrowed.
func (s *Store) GetShared(ref wire.FileRef, number uint64) (Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.files[ref]
	if !ok {
		return Version{}, fmt.Errorf("%w: %s", ErrUnknownFile, ref)
	}
	for _, v := range h.versions {
		if v.Number == number {
			return v, nil
		}
	}
	return Version{}, fmt.Errorf("%w: %s v%d", ErrVersionGone, ref, number)
}

// DeltaFrom computes the delta that upgrades base to want using algorithm.
// It fails with ErrVersionGone when either version is no longer retained —
// the signal to fall back to a FileFull transfer.
//
// The returned delta's inserted lines alias the stored content of the want
// version (see diff.Compute), so it is valid as HeadShared's content is:
// while that version is retained, or under a Borrow — the pull path takes one
// until the encoded delta is sent. The sums every version was stored with do
// not change, so the delta carries those instead of checksumming both files
// again.
func (s *Store) DeltaFrom(ref wire.FileRef, base, want uint64, algorithm diff.Algorithm) (*diff.Delta, error) {
	baseV, err := s.GetShared(ref, base)
	if err != nil {
		return nil, err
	}
	wantV, err := s.GetShared(ref, want)
	if err != nil {
		return nil, err
	}
	return diff.ComputeSummed(algorithm, baseV.Content, wantV.Content, baseV.Sum, wantV.Sum)
}

// GetManifest is GetShared with the version's content-defined chunk manifest
// (manifestAt), the store's own: read-only, and never rewritten. The content
// is valid while retained or borrowed, as GetShared's is.
// ErrVersionGone signals the version was pruned: the v3 transfer path then
// answers for the head instead, exactly as the delta path falls back.
func (s *Store) GetManifest(ref wire.FileRef, number uint64) (Version, chunk.Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.files[ref]
	if !ok {
		return Version{}, nil, fmt.Errorf("%w: %s", ErrUnknownFile, ref)
	}
	for i := range h.versions {
		if h.versions[i].Number == number {
			return h.versions[i], h.manifestAt(i), nil
		}
	}
	return Version{}, nil, fmt.Errorf("%w: %s v%d", ErrVersionGone, ref, number)
}

// ManifestFor is GetManifest for a caller that needs only the manifest and
// the content.
func (s *Store) ManifestFor(ref wire.FileRef, number uint64) (chunk.Manifest, []byte, error) {
	v, m, err := s.GetManifest(ref, number)
	return m, v.Content, err
}

// ChunkByHash looks a chunk up by content address across the retained
// versions of ref, newest first (the freshest copy of shared content is the
// most likely to stay retained). The returned bytes alias the store's
// version content — read-only, and valid while that version is retained or
// the caller holds a Borrow (see HeadShared). It reports
// ok=false when no retained version contains the chunk, the cue to answer a
// ChunkReq without that chunk.
func (s *Store) ChunkByHash(ref wire.FileRef, want chunk.Hash) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.files[ref]
	if !ok {
		return nil, false
	}
	for i := len(h.versions) - 1; i >= 0; i-- {
		off := 0
		for _, r := range h.manifestAt(i) {
			if r.Hash == want {
				return h.versions[i].Content[off : off+int(r.Len)], true
			}
			off += int(r.Len)
		}
	}
	return nil, false
}

// manifestAt returns the manifest of h.versions[i], memoizing it: derived
// (chunk.SplitFrom) from the nearest older version that has one, so only the
// edit between them is cut and hashed, else split in full. Race builds check
// it against a full split.
func (h *history) manifestAt(i int) chunk.Manifest {
	v := &h.versions[i]
	if v.manifest != nil || len(v.Content) == 0 {
		return v.manifest
	}
	var prev chunk.Manifest
	var prevData []byte
	for k := i - 1; k >= 0 && prev == nil; k-- {
		prev, prevData = h.versions[k].manifest, h.versions[k].Content
	}
	v.manifest = chunk.SplitFrom(prev, prevData, v.Content, chunk.DefaultParams)
	if race.Enabled && !slices.Equal(v.manifest, chunk.Split(v.Content, chunk.DefaultParams)) {
		panic(fmt.Sprintf("vcs: %s v%d: derived manifest differs from a full split", h.ref, v.Number))
	}
	return v.manifest
}

// Ack records that the server has stored version number of ref, then prunes
// versions the protocol can no longer need, subject to the retention limit.
//
// An ack for a version that is no longer retained (the user edited past it
// before the ack arrived, and pruning took it) is ignored: protecting a
// version whose content is gone is meaningless, and the server's next Pull
// from that base simply falls back to a full transfer.
func (s *Store) Ack(ref wire.FileRef, number uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.files[ref]
	if !ok || len(h.versions) == 0 {
		return
	}
	head := h.versions[len(h.versions)-1].Number
	if number > head {
		number = head
	}
	if number <= h.acked || !h.retains(number) {
		return
	}
	h.acked = number
	s.pruneLocked(h)
}

// retains reports whether the version is still stored.
func (h *history) retains(number uint64) bool {
	for _, v := range h.versions {
		if v.Number == number {
			return true
		}
	}
	return false
}

// Acked returns the newest acknowledged version number of ref (0 if none).
func (s *Store) Acked(ref wire.FileRef) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.files[ref]
	if !ok {
		return 0
	}
	return h.acked
}

// pruneLocked drops prunable versions beyond the retention limit. Protected:
// the head and the newest acknowledged version.
func (s *Store) pruneLocked(h *history) {
	if len(h.versions) == 0 {
		return
	}
	headNum := h.versions[len(h.versions)-1].Number
	protected := func(v Version) bool {
		return v.Number == headNum || (h.acked != 0 && v.Number == h.acked)
	}
	// The retain budget keeps the NEWEST prunable versions, so with m
	// prunable versions total, the first m-retain of them (oldest first)
	// are dropped. Two counting passes make the rebuild in-place and
	// allocation-free.
	m := 0
	for _, v := range h.versions {
		if !protected(v) {
			m++
		}
	}
	drop := m - s.retain
	if drop <= 0 {
		return
	}
	kept := h.versions[:0]
	for _, v := range h.versions {
		if !protected(v) && drop > 0 {
			drop--
			s.pruned++
			if s.borrows == 0 {
				s.spareLocked(v.Content)
			}
			continue
		}
		kept = append(kept, v)
	}
	// Release the dropped versions' content instead of pinning it in the
	// slice's tail.
	for i := len(kept); i < len(h.versions); i++ {
		h.versions[i] = Version{}
	}
	h.versions = kept
}

// Files returns the refs with at least one retained version.
func (s *Store) Files() []wire.FileRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]wire.FileRef, 0, len(s.files))
	for _, h := range s.files {
		if len(h.versions) > 0 {
			out = append(out, h.ref)
		}
	}
	return out
}

// Stats returns a snapshot of store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Files:     len(s.files),
		Committed: s.committed,
		Pruned:    s.pruned,
	}
	for _, h := range s.files {
		st.Versions += len(h.versions)
		for _, v := range h.versions {
			st.Bytes += int64(len(v.Content))
		}
	}
	return st
}
