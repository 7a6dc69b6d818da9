// Package cache implements the server-side shadow store: the best-effort
// cache of submitted files kept at the supercomputer site (§5.1).
//
// "Caching does not guarantee that a duplicate copy of the user's file will
// always be available at the remote host. ... The software takes advantage of
// a cached file if it is at the remote host, but in the worst case it would
// have to send the entire file." Accordingly, the cache may refuse or evict
// any entry at any time; correctness never depends on a hit. The remote host
// decides how much disk to spend and which files leave first — here a byte
// capacity plus a pluggable eviction policy.
//
// Entries hold the newest version of each shadow file. Nothing pins an
// entry: jobs run on snapshots taken when their inputs arrive.
//
// Storage is content-addressed: an entry is a manifest of chunk refs into a
// shared, refcounted chunk store (internal/chunk), so identical content
// across users, files and versions is resident once. Byte accounting — and
// the capacity the eviction policy defends — is at unique-chunk granularity:
// a million near-identical files cost one copy of the shared chunks plus
// each file's private ones. Evicting an entry releases its manifest's
// references; a chunk's bytes are freed only when the last manifest (or
// in-flight transfer) referencing it lets go, which is also what makes
// re-fetching an evicted file cheap — the transfer path requests only the
// chunks that are actually gone.
//
// The store is lock-striped: entries are spread over shardCount shards keyed
// by a mixed ShadowID hash, so concurrent sessions touching different files
// never contend. Byte accounting and hit/miss/eviction statistics are
// atomics read without any lock. Victim selection under capacity pressure is
// still a global decision — the policy ("least recently used anywhere",
// "largest anywhere") matches the single-lock implementation exactly — so
// bounded Puts serialize on one eviction mutex while scanning shards one at
// a time; unbounded caches (the common server configuration) never take it.
//
// The store is introspectable without perturbing it: Stats reads the atomic
// counters, and Entries copies each shard's contents under that shard's own
// lock (a per-shard-consistent snapshot) — this is what shadowd's /cachez
// admin page renders; see OBSERVABILITY.md.
package cache

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"shadowedit/internal/chunk"
	"shadowedit/internal/naming"
)

// Policy selects which entry leaves first under pressure.
type Policy int

// Eviction policies.
const (
	// LRU evicts the least recently used entry first.
	LRU Policy = iota + 1
	// LargestFirst evicts the biggest entry first, maximizing the count
	// of files that stay cached (small files benefit the most per byte
	// from shadowing's avoided round trips).
	LargestFirst
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case LargestFirst:
		return "largest-first"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ErrTooLarge reports content bigger than the whole cache; best-effort
// semantics mean the caller simply proceeds uncached.
var ErrTooLarge = errors.New("cache: content exceeds capacity")

// Entry is one cached shadow file version. Content is assembled fresh from
// the chunk store on every lookup — the caller owns it.
type Entry struct {
	ID      naming.ShadowID
	Version uint64
	Content []byte
}

// Stats counts cache activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Rejected  int64
	// Bytes is the unique-chunk bytes resident in the underlying store —
	// the quantity the capacity bounds.
	Bytes int64
	// LogicalBytes is the sum of the entries' content lengths: what a
	// whole-file cache would hold. LogicalBytes/Bytes is the dedup ratio.
	LogicalBytes int64
	Entries      int
	// Chunk-store accounting (see chunk.StoreStats).
	Chunks     int
	ChunkPuts  int64
	ChunkDups  int64
	ChunkFrees int64
}

// DedupRatio is logical over unique bytes (1.0 when the store is empty or
// nothing dedups).
func (s Stats) DedupRatio() float64 {
	if s.Bytes <= 0 {
		return 1
	}
	return float64(s.LogicalBytes) / float64(s.Bytes)
}

// shardCount is the number of lock stripes; a power of two so the shard
// index is a mask of the mixed hash.
const shardCount = 16

// Cache is a bounded, concurrency-safe shadow store.
type Cache struct {
	capacity int64
	policy   Policy
	params   chunk.Params
	store    *chunk.Store

	shards [shardCount]shard

	// evictMu serializes capacity-bounded Puts so the room check and the
	// eviction scan are atomic with respect to each other. Reads and unbounded
	// Puts never take it.
	evictMu sync.Mutex

	// onEvict, when set, observes every entry that leaves the cache —
	// policy eviction, explicit Evict, a rejected Put dropping its stale
	// predecessor, Flush. Replacement by a newer version is not a removal
	// and is not reported. Called after the shard lock is dropped, so the
	// hook may take its own locks; set it once, before concurrent use.
	onEvict func(naming.ShadowID)

	logicalBytes atomic.Int64
	seq          atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	rejected  atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[naming.ShadowID]*slot
}

type slot struct {
	version  uint64
	manifest chunk.Manifest
	size     int64 // logical content length
	lastUsed int64
	// split marks a manifest the cache computed itself (Put, PutFromBase):
	// chunk.Split of the content, every Len the length of its chunk. A
	// manifest a client or peer described (PutManifest) is checked only for
	// what its chunks hash and sum to, so nothing is derived from it.
	split bool
}

// shardOf mixes the id (sequential intern order would otherwise map
// neighbouring files to neighbouring shards unevenly) and picks a stripe.
func (c *Cache) shardOf(id naming.ShadowID) *shard {
	h := uint64(id)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &c.shards[h&(shardCount-1)]
}

// New returns a cache bounded to capacity bytes of unique chunk content
// (<= 0 means unbounded) with the given eviction policy.
func New(capacity int64, policy Policy) *Cache {
	if policy != LRU && policy != LargestFirst {
		policy = LRU
	}
	c := &Cache{
		capacity: capacity,
		policy:   policy,
		params:   chunk.DefaultParams,
		store:    chunk.NewStore(),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[naming.ShadowID]*slot)
	}
	return c
}

// ChunkStore exposes the underlying chunk store. The transfer path uses it
// directly: resolving a manifest's refs against resident chunks, pinning
// chunks for in-flight assemblies, and storing arriving chunk data.
func (c *Cache) ChunkStore() *chunk.Store { return c.store }

// SetEvictHook installs fn to observe every entry removal (see onEvict).
// Holders that key side state by entry — the server's retained peer deltas —
// use it to drop that state in lockstep with the cache, so their footprint
// can never outgrow the cache's own. Must be called before the cache sees
// concurrent use; a nil fn removes the hook.
func (c *Cache) SetEvictHook(fn func(naming.ShadowID)) { c.onEvict = fn }

// evicted reports one removed entry to the hook. Callers must have dropped
// every shard lock first.
func (c *Cache) evicted(id naming.ShadowID) {
	if c.onEvict != nil {
		c.onEvict(id)
	}
}

// Params returns the chunking parameters the cache splits content with.
func (c *Cache) Params() chunk.Params { return c.params }

// Get returns the cached entry for id, if present, and refreshes its
// recency. The content is assembled from the chunk store into a fresh
// buffer the caller owns.
//
// Get, GetInto and GetAtLeast are the lookups Stats counts: a hit is an entry
// that was there — as the content itself or as the base the next delta or
// manifest builds on — a miss one that was not. Version, Peek, Manifest and
// Fingerprint plan or inspect and count nothing.
func (c *Cache) Get(id naming.ShadowID) (Entry, bool) {
	return c.GetAtLeast(nil, id, 0)
}

// GetInto is Get assembling the content into dst's backing array (from its
// start; a larger one is allocated if it is too small) instead of a fresh
// buffer, for callers that only read the content and recycle the buffer —
// the delta arrival path drops its base as soon as the delta is applied.
func (c *Cache) GetInto(dst []byte, id naming.ShadowID) (Entry, bool) {
	return c.GetAtLeast(dst, id, 0)
}

// GetAtLeast is GetInto for a reader that can only use version min or newer
// (a job gathering its inputs): an older entry is reported — it is a hit, and
// its recency is refreshed, exactly as Get would — but with nil Content,
// because assembling a file nobody will read costs a file-sized allocation
// and copy. The version test and the assembly happen under one shard lock.
func (c *Cache) GetAtLeast(dst []byte, id naming.ShadowID, min uint64) (Entry, bool) {
	sh := c.shardOf(id)
	sh.mu.Lock()
	s, ok := sh.entries[id]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return Entry{}, false
	}
	s.lastUsed = c.seq.Add(1)
	e := Entry{ID: id, Version: s.version}
	if s.version >= min {
		e = c.assembleLocked(dst, id, s)
	}
	sh.mu.Unlock()
	c.hits.Add(1)
	return e, true
}

// Peek is Get without touching recency or hit statistics.
func (c *Cache) Peek(id naming.ShadowID) (Entry, bool) {
	sh := c.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.entries[id]
	if !ok {
		return Entry{}, false
	}
	return c.assembleLocked(nil, id, s), true
}

// Version returns the cached version number of id without assembling its
// content — the cheap lookup for call sites that only plan (pull decisions,
// overtaken checks). Like Peek it touches neither recency nor hit statistics.
func (c *Cache) Version(id naming.ShadowID) (uint64, bool) {
	sh := c.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.entries[id]
	if !ok {
		return 0, false
	}
	return s.version, true
}

// Manifest returns the cached version and manifest of id. The manifest is
// the entry's own — the caller must not modify it, and it is only guaranteed
// to stay backed by resident chunks while the entry lives (callers that need
// the chunks past the shard's lifetime take their own refs).
func (c *Cache) Manifest(id naming.ShadowID) (uint64, chunk.Manifest, bool) {
	sh := c.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.entries[id]
	if !ok {
		return 0, nil, false
	}
	return s.version, s.manifest, true
}

// Fingerprint returns the cached version of id and the fingerprint of its
// manifest — the Merkle leaf hash directory reconciliation summarizes the
// entry by. Computed under the shard lock, so it is always consistent with
// one resident version (an entry mid-replacement yields either the old or
// the new fingerprint, never a mixture).
func (c *Cache) Fingerprint(id naming.ShadowID) (uint64, chunk.Hash, bool) {
	sh := c.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.entries[id]
	if !ok {
		return 0, chunk.Hash{}, false
	}
	return s.version, s.manifest.Fingerprint(), true
}

// assembleLocked reconstructs a slot's content while the shard lock pins its
// manifest (eviction takes the same lock, so the chunks cannot be released
// mid-assembly). A failed assembly is a refcounting bug; the cache treats it
// as a miss rather than serving corrupt content.
func (c *Cache) assembleLocked(dst []byte, id naming.ShadowID, s *slot) Entry {
	content, ok := c.store.AppendAssemble(slices.Grow(dst[:0], int(s.size)), s.manifest)
	if !ok {
		// Unreachable unless refcounts are broken; fail loudly in tests.
		panic(fmt.Sprintf("cache: entry %d lost chunks", id))
	}
	return Entry{ID: id, Version: s.version, Content: content}
}

// Put stores version content for id, replacing any older version and
// splitting the content into the shared chunk store (already-resident chunks
// are deduplicated, not stored again). Under a capacity bound, other
// entries are evicted until unique bytes fit; eviction is best-effort — if
// the bytes that remain are held by in-flight transfers the cache may briefly
// exceed its bound rather than refuse fresh content. Content bigger than the whole cache is rejected
// up front with ErrTooLarge, and callers must not treat that as fatal.
func (c *Cache) Put(id naming.ShadowID, version uint64, content []byte) error {
	size := int64(len(content))
	// Content that can never fit is rejected up front — evicting the
	// whole cache first would sacrifice everyone else's entries for
	// nothing. (Unique bytes can only be <= the content length, so this
	// conservative check errs toward accepting.)
	if c.capacity > 0 && size > c.capacity {
		c.reject(id)
		return ErrTooLarge
	}
	m := c.store.AddManifest(content, c.params)
	c.install(id, version, m, size, true)
	return nil
}

// PutOwned is Put; the cache copies chunk data into the store and never
// retains content, so there is nothing for it to take ownership of. The name
// survives for the benchmark's replay.
func (c *Cache) PutOwned(id naming.ShadowID, version uint64, content []byte) error {
	return c.Put(id, version, content)
}

// PutFromBase is Put for content that is the resident version base of id with
// the given spans rewritten (what applying an edit-script delta reports). The
// new manifest is derived from the resident one — unchanged chunks keep their
// refs, only what an edit touched is cut and hashed again (chunk.Resplit) —
// and is identical to the one Put would compute, as are the chunk store's
// put/dup counts. Anything else is stored by a full split exactly as Put
// does: nil spans (the delta gave no account of its edits), a resident
// version that is no longer base (evicted or replaced since the caller read
// it), a resident manifest the cache did not split itself (PutManifest took
// a client's or a peer's word for the boundaries and lengths, and Resplit
// would copy them unchecked), spans that do not fit.
//
// The derivation runs outside the shard lock on the resident manifest, which
// is immutable once installed. Should that entry be released meanwhile, its
// chunks are simply stored again from content: PutChunks references a
// resident chunk and re-creates a missing one, so the references the new
// manifest holds never depend on the old entry surviving.
func (c *Cache) PutFromBase(id naming.ShadowID, base, version uint64, content []byte, spans []chunk.Span) error {
	size := int64(len(content))
	if spans != nil && (c.capacity <= 0 || size <= c.capacity) {
		if resident, ok := c.splitManifest(id, base); ok {
			if m, ok := chunk.Resplit(resident, content, spans, c.params); ok {
				if raceEnabled && !slices.Equal(m, chunk.Split(content, c.params)) {
					panic(fmt.Sprintf("cache: entry %d: manifest derived from v%d differs from a full split", id, base))
				}
				c.store.PutChunks(m, content)
				c.install(id, version, m, size, true)
				return nil
			}
		}
	}
	return c.Put(id, version, content)
}

// splitManifest returns the resident manifest of id if it is version base and
// the cache's own split of that version's content — the only kind PutFromBase
// may derive from. The manifest is immutable once installed.
func (c *Cache) splitManifest(id naming.ShadowID, base uint64) (chunk.Manifest, bool) {
	sh := c.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.entries[id]; ok && s.version == base && s.split {
		return s.manifest, true
	}
	return nil, false
}

// PutManifest stores an entry whose chunks are already resident: the caller
// transfers one reference per manifest entry to the cache (the chunked
// arrival path holds those refs from resolving and receiving the transfer).
// The manifest must not be used by the caller afterwards.
func (c *Cache) PutManifest(id naming.ShadowID, version uint64, m chunk.Manifest) {
	c.install(id, version, m, m.TotalLen(), false)
}

// install replaces the entry for id and enforces the capacity bound. split
// says the cache computed m itself (see slot.split).
func (c *Cache) install(id naming.ShadowID, version uint64, m chunk.Manifest, size int64, split bool) {
	sh := c.shardOf(id)
	if c.capacity <= 0 {
		// Unbounded: fully shard-local.
		sh.mu.Lock()
		old := c.storeLocked(sh, id, version, m, size, split)
		sh.mu.Unlock()
		c.store.ReleaseManifest(old)
		return
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	sh.mu.Lock()
	old := c.storeLocked(sh, id, version, m, size, split)
	sh.mu.Unlock()
	c.store.ReleaseManifest(old)
	// Only install (under evictMu) grows unique bytes, so the loop cannot
	// be starved by concurrent growth.
	for c.store.UniqueBytes() > c.capacity {
		if !c.evictOne(id) {
			break
		}
	}
}

// reject counts a failed Put and drops any stale old version of id.
func (c *Cache) reject(id naming.ShadowID) {
	c.rejected.Add(1)
	sh := c.shardOf(id)
	sh.mu.Lock()
	var old chunk.Manifest
	removed := false
	if s, ok := sh.entries[id]; ok {
		c.logicalBytes.Add(-s.size)
		old = s.manifest
		delete(sh.entries, id)
		removed = true
	}
	sh.mu.Unlock()
	c.store.ReleaseManifest(old)
	if removed {
		c.evicted(id)
	}
}

// storeLocked installs the manifest under sh.mu, which must be held, and
// returns the replaced entry's manifest for the caller to release once the
// shard lock is dropped.
func (c *Cache) storeLocked(sh *shard, id naming.ShadowID, version uint64, m chunk.Manifest, size int64, split bool) chunk.Manifest {
	seq := c.seq.Add(1)
	if old, ok := sh.entries[id]; ok {
		c.logicalBytes.Add(size - old.size)
		prev := old.manifest
		old.version = version
		old.manifest = m
		old.size = size
		old.lastUsed = seq
		old.split = split
		return prev
	}
	sh.entries[id] = &slot{
		version:  version,
		manifest: m,
		size:     size,
		lastUsed: seq,
		split:    split,
	}
	c.logicalBytes.Add(size)
	return nil
}

// evictOne removes one victim per policy, scanning every shard for the
// global best candidate (identical choice to the single-lock cache) and then
// revalidating under the victim's shard lock — if an Evict or a rejected Put
// removed it after the scan, the scan repeats. Returns false when no victim
// exists. Caller holds evictMu, so at most one eviction scan runs at a time
// and no shard lock is ever held while another is taken. Releasing the
// victim's manifest frees only the chunks no other manifest (and no
// in-flight assembly) still references.
func (c *Cache) evictOne(keep naming.ShadowID) bool {
	for {
		var (
			victimShard *shard
			victim      naming.ShadowID
			found       bool
			best        int64 = -1
			oldest      int64 = math.MaxInt64
		)
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			for id, s := range sh.entries {
				if id == keep {
					continue
				}
				switch c.policy {
				case LargestFirst:
					if s.size > best {
						best = s.size
						victim, victimShard, found = id, sh, true
					}
				default: // LRU
					if s.lastUsed < oldest {
						oldest = s.lastUsed
						victim, victimShard, found = id, sh, true
					}
				}
			}
			sh.mu.Unlock()
		}
		if !found {
			return false
		}
		victimShard.mu.Lock()
		if s, ok := victimShard.entries[victim]; ok {
			c.logicalBytes.Add(-s.size)
			m := s.manifest
			delete(victimShard.entries, victim)
			victimShard.mu.Unlock()
			c.store.ReleaseManifest(m)
			c.evictions.Add(1)
			c.evicted(victim)
			return true
		}
		victimShard.mu.Unlock()
		// The chosen victim was removed after the scan; pick again without it.
	}
}

// Evict forcibly removes an entry; used by tests and by
// operators reclaiming disk. Reports whether the entry existed.
func (c *Cache) Evict(id naming.ShadowID) bool {
	sh := c.shardOf(id)
	sh.mu.Lock()
	s, ok := sh.entries[id]
	if !ok {
		sh.mu.Unlock()
		return false
	}
	c.logicalBytes.Add(-s.size)
	m := s.manifest
	delete(sh.entries, id)
	sh.mu.Unlock()
	c.store.ReleaseManifest(m)
	c.evictions.Add(1)
	c.evicted(id)
	return true
}

// Flush empties the cache (server restart, disk scrubbed).
func (c *Cache) Flush() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		manifests := make([]chunk.Manifest, 0, len(sh.entries))
		ids := make([]naming.ShadowID, 0, len(sh.entries))
		for id, s := range sh.entries {
			c.logicalBytes.Add(-s.size)
			manifests = append(manifests, s.manifest)
			ids = append(ids, id)
			delete(sh.entries, id)
		}
		sh.mu.Unlock()
		for _, m := range manifests {
			c.store.ReleaseManifest(m)
		}
		for _, id := range ids {
			c.evicted(id)
		}
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	cs := c.store.Stats()
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		Rejected:     c.rejected.Load(),
		Bytes:        cs.UniqueBytes,
		LogicalBytes: c.logicalBytes.Load(),
		Entries:      c.Len(),
		Chunks:       cs.Chunks,
		ChunkPuts:    cs.Puts,
		ChunkDups:    cs.Dups,
		ChunkFrees:   cs.Frees,
	}
}

// Bytes returns the unique chunk bytes resident in the store — the quantity
// the capacity bounds.
func (c *Cache) Bytes() int64 { return c.store.UniqueBytes() }

// LogicalBytes returns the sum of the entries' content lengths.
func (c *Cache) LogicalBytes() int64 { return c.logicalBytes.Load() }

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Capacity returns the configured byte capacity (<= 0 means unbounded).
func (c *Cache) Capacity() int64 { return c.capacity }

// Policy returns the configured eviction policy.
func (c *Cache) Policy() Policy { return c.policy }

// EntryInfo describes one cached entry without exposing its content —
// what an operator inspecting the cache (shadowd's /cachez) needs to see.
type EntryInfo struct {
	Shard   int
	ID      naming.ShadowID
	Version uint64
	// Size is the logical content length; Chunks the manifest's ref count.
	Size     int
	Chunks   int
	LastUsed int64 // recency sequence number; higher = used more recently
}

// Entries snapshots every cached entry's metadata, shard by shard. Each
// shard is locked only while it is copied, so the snapshot is per-shard
// consistent (concurrent Puts may land between shards — fine for an
// operator view, which is best effort like the cache itself).
func (c *Cache) Entries() []EntryInfo {
	var out []EntryInfo
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for id, s := range sh.entries {
			out = append(out, EntryInfo{
				Shard:    i,
				ID:       id,
				Version:  s.version,
				Size:     int(s.size),
				Chunks:   len(s.manifest),
				LastUsed: s.lastUsed,
			})
		}
		sh.mu.Unlock()
	}
	return out
}
