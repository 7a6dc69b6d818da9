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
	"errors"
	"fmt"
	"sync"

	"shadowedit/internal/chunk"
	"shadowedit/internal/diff"
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
	// by ManifestFor and memoized with the version; pruning a version drops
	// its manifest with it. Never set on the copies Get/Head hand out.
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
	return s.commit(ref, content, false)
}

// CommitOwned is Commit for a caller handing over a buffer nothing else
// references or will write — a file just read for this commit: the store
// keeps content itself as the version's immutable bytes instead of copying
// it.
func (s *Store) CommitOwned(ref wire.FileRef, content []byte) (version uint64, changed bool) {
	return s.commit(ref, content, true)
}

func (s *Store) commit(ref wire.FileRef, content []byte, owned bool) (version uint64, changed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.files[ref]
	if !ok {
		h = &history{ref: ref}
		s.files[ref] = h
	}
	sum := diff.Checksum(content)
	if n := len(h.versions); n > 0 {
		head := h.versions[n-1]
		if head.Sum == sum && len(head.Content) == len(content) {
			return head.Number, false
		}
	}
	next := uint64(1)
	if n := len(h.versions); n > 0 {
		next = h.versions[n-1].Number + 1
	}
	if !owned {
		content = append([]byte(nil), content...)
	}
	h.versions = append(h.versions, Version{Number: next, Content: content, Sum: sum})
	s.committed++
	s.pruneLocked(h)
	return next, true
}

// CommitAtLeast is Commit for a client whose store was freshly created (for
// example after a restart without restoring state) while the server already
// tracks higher version numbers for the file: the new version's number is
// forced to at least minNumber so the server's notion of "newest" keeps
// ascending.
func (s *Store) CommitAtLeast(ref wire.FileRef, content []byte, minNumber uint64) (version uint64, changed bool) {
	s.mu.Lock()
	h, ok := s.files[ref]
	if ok && len(h.versions) > 0 && h.versions[len(h.versions)-1].Number >= minNumber {
		s.mu.Unlock()
		return s.Commit(ref, content)
	}
	if !ok {
		h = &history{ref: ref}
		s.files[ref] = h
	}
	h.versions = append(h.versions, Version{
		Number:  minNumber,
		Content: append([]byte(nil), content...),
		Sum:     diff.Checksum(content),
	})
	s.committed++
	s.pruneLocked(h)
	s.mu.Unlock()
	return minNumber, true
}

// Head returns the newest version of ref. The content is a private copy the
// caller owns; use HeadShared on paths where the copy matters.
func (s *Store) Head(ref wire.FileRef) (Version, bool) {
	v, ok := s.HeadShared(ref)
	if !ok {
		return Version{}, false
	}
	return cloneVersion(v), true
}

// HeadShared is Head without the content copy. The returned Content is the
// store's own backing array: committed content is immutable (Commit stores a
// private copy and nothing ever writes it again; pruning only drops
// references), so the slice stays valid and constant indefinitely — but the
// caller must treat it as read-only.
func (s *Store) HeadShared(ref wire.FileRef) (Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.files[ref]
	if !ok || len(h.versions) == 0 {
		return Version{}, false
	}
	return h.versions[len(h.versions)-1], true
}

// Get returns a specific retained version of ref. The content is a private
// copy the caller owns; use GetShared on paths where the copy matters.
func (s *Store) Get(ref wire.FileRef, number uint64) (Version, error) {
	v, err := s.GetShared(ref, number)
	if err != nil {
		return Version{}, err
	}
	return cloneVersion(v), nil
}

// GetShared is Get without the content copy; the same read-only sharing
// contract as HeadShared applies.
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
// version (see diff.Compute); since committed content is immutable, the
// delta stays valid until encoded, which is all the pull path does with it.
// Immutable too are the sums every version was stored with, so the delta
// carries those instead of checksumming both files again.
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

// ManifestFor returns the content-defined chunk manifest of a retained
// version together with its shared content, computing and memoizing the
// manifest on first use. The manifest and content are the store's own —
// read-only for the caller, valid indefinitely (committed content is
// immutable and a memoized manifest is never rewritten). ErrVersionGone
// signals the version was pruned: the v3 transfer path then answers for the
// head instead, exactly as the delta path falls back.
func (s *Store) ManifestFor(ref wire.FileRef, number uint64) (chunk.Manifest, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.files[ref]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownFile, ref)
	}
	for i := range h.versions {
		if h.versions[i].Number == number {
			if h.versions[i].manifest == nil {
				h.versions[i].manifest = chunk.Split(h.versions[i].Content, chunk.DefaultParams)
			}
			return h.versions[i].manifest, h.versions[i].Content, nil
		}
	}
	return nil, nil, fmt.Errorf("%w: %s v%d", ErrVersionGone, ref, number)
}

// ChunkByHash looks a chunk up by content address across the retained
// versions of ref, newest first (the freshest copy of shared content is the
// most likely to stay retained). The returned bytes alias the store's
// immutable version content — read-only, but valid indefinitely. It reports
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
		v := &h.versions[i]
		if v.manifest == nil {
			v.manifest = chunk.Split(v.Content, chunk.DefaultParams)
		}
		off := 0
		for _, r := range v.manifest {
			if r.Hash == want {
				return v.Content[off : off+int(r.Len)], true
			}
			off += int(r.Len)
		}
	}
	return nil, false
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

// Versions returns the retained version numbers of ref, ascending.
func (s *Store) Versions(ref wire.FileRef) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.files[ref]
	if !ok {
		return nil
	}
	out := make([]uint64, len(h.versions))
	for i, v := range h.versions {
		out[i] = v.Number
	}
	return out
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

// Forget drops all state for ref.
func (s *Store) Forget(ref wire.FileRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, ref)
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

func cloneVersion(v Version) Version {
	return Version{
		Number:  v.Number,
		Content: append([]byte(nil), v.Content...),
		Sum:     v.Sum,
	}
}
