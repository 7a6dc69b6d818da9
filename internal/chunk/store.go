package chunk

import (
	"sync"
	"sync/atomic"
)

// storeShards spreads the hash space over independent locks, sized like the
// cache's shard table so concurrent sessions rarely collide.
const storeShards = 16

// StoreStats is a point-in-time view of a Store.
type StoreStats struct {
	// Chunks is the number of unique chunks resident.
	Chunks int
	// UniqueBytes is the total content bytes of resident chunks — each
	// stored once however many manifests reference it.
	UniqueBytes int64
	// Puts counts insertions of chunks the store had not seen.
	Puts int64
	// Dups counts references taken on chunks already resident — the
	// store's deduplication hits.
	Dups int64
	// Frees counts chunks released when their last reference dropped.
	Frees int64
}

// Store is a hash-addressed, refcounted chunk store. Every operation that
// hands out a chunk takes a reference; Release drops one, and a chunk's
// bytes are freed exactly when its last reference goes. A reference is
// therefore also a pin: an in-flight transfer holding refs on its chunks is
// immune to cache eviction, which only ever releases the references a cache
// entry's manifest holds.
type Store struct {
	shards [storeShards]storeShard

	uniqueBytes atomic.Int64
	chunks      atomic.Int64
	puts        atomic.Int64
	dups        atomic.Int64
	frees       atomic.Int64
}

type storeShard struct {
	mu     sync.Mutex
	chunks map[Hash]*chunkEntry
}

type chunkEntry struct {
	data []byte
	refs int64 // guarded by the shard mutex
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].chunks = make(map[Hash]*chunkEntry)
	}
	return s
}

// shardOf picks the shard for a hash. The hash is already uniform, so the
// leading byte is as good a selector as any mix.
func (s *Store) shardOf(h Hash) *storeShard {
	return &s.shards[h[0]&(storeShards-1)]
}

// Put inserts data under h (the caller has already hashed it) and returns
// with one reference held by the caller. If the chunk is already resident
// the data is ignored and its refcount incremented — the dedup hit. New
// chunks copy data, so callers may hand in sub-slices of transient buffers.
func (s *Store) Put(h Hash, data []byte) {
	sh := s.shardOf(h)
	sh.mu.Lock()
	if e, ok := sh.chunks[h]; ok {
		e.refs++
		sh.mu.Unlock()
		s.dups.Add(1)
		return
	}
	owned := make([]byte, len(data))
	copy(owned, data)
	sh.chunks[h] = &chunkEntry{data: owned, refs: 1}
	sh.mu.Unlock()
	s.uniqueBytes.Add(int64(len(owned)))
	s.chunks.Add(1)
	s.puts.Add(1)
}

// Ref takes one reference on h if it is resident, reporting whether it was.
// The caller that gets true owns a reference it must eventually Release.
func (s *Store) Ref(h Hash) bool {
	sh := s.shardOf(h)
	sh.mu.Lock()
	e, ok := sh.chunks[h]
	if ok {
		e.refs++
	}
	sh.mu.Unlock()
	if ok {
		s.dups.Add(1)
	}
	return ok
}

// Get returns the chunk's content without touching its refcount. The bytes
// are the store's own and must not be modified; the caller must hold a
// reference (directly or through a manifest) for as long as it reads them.
func (s *Store) Get(h Hash) ([]byte, bool) {
	sh := s.shardOf(h)
	sh.mu.Lock()
	e, ok := sh.chunks[h]
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.data, true
}

// Release drops one reference on h, freeing the chunk when it was the last.
func (s *Store) Release(h Hash) {
	sh := s.shardOf(h)
	sh.mu.Lock()
	e, ok := sh.chunks[h]
	if !ok {
		sh.mu.Unlock()
		return
	}
	e.refs--
	freed := e.refs <= 0
	if freed {
		delete(sh.chunks, h)
	}
	sh.mu.Unlock()
	if freed {
		s.uniqueBytes.Add(-int64(len(e.data)))
		s.chunks.Add(-1)
		s.frees.Add(1)
	}
}

// AddManifest splits content, stores every chunk (taking one reference per
// manifest entry) and returns the manifest. This is how whole content enters
// the store: the returned manifest owns one reference per ref, released as a
// unit with ReleaseManifest.
func (s *Store) AddManifest(content []byte, p Params) Manifest {
	m := Split(content, p)
	s.PutChunks(m, content)
	return m
}

// PutChunks takes one reference per entry of m, a chunking of content,
// storing the chunks that are not yet resident. It is AddManifest for a
// caller that already has the manifest (Resplit derives one without
// re-hashing the unchanged chunks); an entry whose chunk is resident costs a
// refcount increment and is counted as a dup, exactly as AddManifest counts it.
func (s *Store) PutChunks(m Manifest, content []byte) {
	off := 0
	for _, r := range m {
		s.Put(r.Hash, content[off:off+int(r.Len)])
		off += int(r.Len)
	}
}

// Rebase is PutChunks(m, content) followed by ReleaseManifest(base), for a
// caller that holds base's references and gives them up, without touching
// the chunks both keep: m is a chunking of content that Resplit derived from
// base, and from is Resplit's account of it — for each ref of m, the index of
// the base ref it copies, or -1. A copied ref takes that base ref's reference
// over; the other refs of m are Put from content, and the base refs nobody
// took over are released once every Put is done. The counts read exactly as
// the long way round does: a reference taken over is a dup (PutChunks would
// have found the chunk resident), a dropped one a release.
func (s *Store) Rebase(base, m Manifest, from []int32, content []byte) {
	off, kept := 0, 0
	for j, r := range m {
		if from[j] < 0 {
			s.Put(r.Hash, content[off:off+int(r.Len)])
		} else {
			kept++
		}
		off += int(r.Len)
	}
	s.dups.Add(int64(kept))
	next := 0 // the first base ref not yet taken over or released
	for _, bi := range from {
		if bi >= 0 {
			for ; next < int(bi); next++ {
				s.Release(base[next].Hash)
			}
			next = int(bi) + 1
		}
	}
	for ; next < len(base); next++ {
		s.Release(base[next].Hash)
	}
}

// ReleaseManifest drops the one-reference-per-entry a manifest holds.
func (s *Store) ReleaseManifest(m Manifest) {
	for _, r := range m {
		s.Release(r.Hash)
	}
}

// AppendAssemble reconstructs the manifest's content into dst and returns
// the extended slice. The caller must hold references on every chunk (a
// cache entry's manifest qualifies). It reports ok=false — with dst
// untouched in length beyond what was appended — if a chunk is missing,
// which indicates a refcounting bug or an incomplete assembly, or is not as
// long as its ref says: a manifest that arrived over the wire and misstates
// a length must not pass for a description of the content it hashes to.
func (s *Store) AppendAssemble(dst []byte, m Manifest) ([]byte, bool) {
	for _, r := range m {
		data, ok := s.Get(r.Hash)
		if !ok || len(data) != int(r.Len) {
			return dst, false
		}
		dst = append(dst, data...)
	}
	return dst, true
}

// AppendSegments is AppendAssemble without the copy: it appends each chunk's
// bytes — the store's own, which the caller must not modify — to dst in
// manifest order. The caller must hold references on every chunk for as long
// as it reads them, and ok is false on the same conditions: a chunk missing,
// or not as long as its ref says.
func (s *Store) AppendSegments(dst [][]byte, m Manifest) ([][]byte, bool) {
	for _, r := range m {
		data, ok := s.Get(r.Hash)
		if !ok || len(data) != int(r.Len) {
			return dst, false
		}
		dst = append(dst, data)
	}
	return dst, true
}

// Assemble reconstructs the manifest's content into a fresh buffer.
// bench/replay.go calls it.
func (s *Store) Assemble(m Manifest) ([]byte, bool) {
	out, ok := s.AppendAssemble(make([]byte, 0, m.TotalLen()), m)
	if !ok {
		return nil, false
	}
	return out, true
}

// UniqueBytes returns the resident unique-chunk byte total.
func (s *Store) UniqueBytes() int64 { return s.uniqueBytes.Load() }

// Len returns the number of resident unique chunks.
func (s *Store) Len() int { return int(s.chunks.Load()) }

// Stats returns a point-in-time view.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Chunks:      int(s.chunks.Load()),
		UniqueBytes: s.uniqueBytes.Load(),
		Puts:        s.puts.Load(),
		Dups:        s.dups.Load(),
		Frees:       s.frees.Load(),
	}
}
