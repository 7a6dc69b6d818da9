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
	"shadowedit/internal/diff"
	"shadowedit/internal/naming"
	"shadowedit/internal/race"
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
	// sum is the content's CRC-32C: the one its arrival was verified
	// against (PutFromBase, PutVerifiedManifest), else computed at install.
	sum uint32
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
// Get, GetAtLeast and View are the lookups Stats counts: a hit is an entry
// that was there — as the content itself or as the base the next delta or
// manifest builds on — a miss one that was not. Version, Peek, Manifest and
// Fingerprint plan or inspect and count nothing.
func (c *Cache) Get(id naming.ShadowID) (Entry, bool) {
	return c.GetAtLeast(nil, id, 0)
}

// GetAtLeast is Get assembling the content into dst's backing array (from
// its start; a larger one is allocated if it is too small), for a reader that
// can only use version min or newer (a job gathering its inputs): an older
// entry is reported — it is a hit, and its recency is refreshed, exactly as
// Get would — but with nil Content, because assembling a file nobody will
// read costs a file-sized allocation and copy. The version test and the
// assembly happen under one shard lock.
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

// View calls read with the content of id's entry, if it is version, as the
// chunk store's own bytes in manifest order — nothing is assembled or copied
// — and its CRC-32C (see slot.sum; race builds check it), and reports whether
// it did. It counts and refreshes recency as Get does: an entry of another
// version is a hit that read never sees. read runs under the shard lock,
// which pins the manifest's chunks (eviction and replacement take the same
// lock), so it must return promptly, must not keep or modify the segments,
// and must not call back into the cache. The segment list is
// built in segs's backing array and comes back emptied, for the caller to
// reuse. This is how the delta arrival path reads a delta's base where the
// base lives.
func (c *Cache) View(segs [][]byte, id naming.ShadowID, version uint64, read func(content [][]byte, sum uint32)) ([][]byte, bool) {
	sh := c.shardOf(id)
	sh.mu.Lock()
	s, ok := sh.entries[id]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return segs, false
	}
	s.lastUsed = c.seq.Add(1)
	hit := s.version == version
	if hit {
		segs = c.segmentsLocked(segs, id, s)
		read(segs, s.sum)
	}
	sh.mu.Unlock()
	c.hits.Add(1)
	clear(segs) // keep no chunk alive past its release
	return segs[:0], hit
}

// segmentsLocked lists s's chunks in segs's backing array while the shard
// lock pins them. Race builds check them against the recorded sum.
func (c *Cache) segmentsLocked(segs [][]byte, id naming.ShadowID, s *slot) [][]byte {
	segs, ok := c.store.AppendSegments(segs[:0], s.manifest)
	if !ok {
		// Unreachable unless refcounts are broken; fail loudly in tests.
		panic(fmt.Sprintf("cache: entry %d lost chunks", id))
	}
	if race.Enabled && diff.ChecksumSegments(segs) != s.sum {
		panic(fmt.Sprintf("cache: entry %d v%d: content does not match its recorded sum", id, s.version))
	}
	return segs
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

// Manifest returns the cached version, manifest and content CRC-32C (as View
// hands it) of id, of one version, assembling nothing. The manifest is the
// entry's own — the caller must not modify it, and it is only guaranteed to
// stay backed by resident chunks while the entry lives (callers that need the
// chunks past the shard's lifetime take their own refs).
func (c *Cache) Manifest(id naming.ShadowID) (uint64, chunk.Manifest, uint32, bool) {
	sh := c.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.entries[id]
	if !ok {
		return 0, nil, 0, false
	}
	if race.Enabled {
		c.segmentsLocked(nil, id, s)
	}
	return s.version, s.manifest, s.sum, true
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
	return c.put(id, slot{version: version, sum: diff.Checksum(content)}, content)
}

// put is Put of the entry e describes: its version and sum.
func (c *Cache) put(id naming.ShadowID, e slot, content []byte) error {
	size := int64(len(content))
	// Content that can never fit is rejected up front — evicting the
	// whole cache first would sacrifice everyone else's entries for
	// nothing. (Unique bytes can only be <= the content length, so this
	// conservative check errs toward accepting.)
	if c.capacity > 0 && size > c.capacity {
		c.reject(id)
		return ErrTooLarge
	}
	e.manifest, e.size, e.split = c.store.AddManifest(content, c.params), size, true
	c.install(id, e, nil)
	return nil
}

// PutOwned is Put; the cache copies chunk data into the store and never
// retains content, so there is nothing for it to take ownership of. The name
// survives for bench/replay.go, which calls it.
func (c *Cache) PutOwned(id naming.ShadowID, version uint64, content []byte) error {
	return c.Put(id, version, content)
}

// PutFromBase is Put for content that is the resident version base of id with
// the given spans rewritten (what applying an edit-script delta reports), and
// whose CRC-32C the caller verified as sum, which the entry records. The
// new manifest is derived from the resident one — unchanged chunks keep their
// refs, only what an edit touched is cut and hashed again (chunk.Resplit) —
// and is identical to the one Put would compute, as are the chunk store's
// put/dup/free counts. Anything else is stored by a full split exactly as Put
// does: nil spans (the delta gave no account of its edits), a resident
// version that is no longer base (evicted or replaced since the caller read
// it), a resident manifest the cache did not split itself (PutManifest took
// a client's or a peer's word for the boundaries and lengths, and Resplit
// would copy them unchecked), spans that do not fit.
//
// The derivation runs outside the shard lock on the resident manifest, which
// is immutable once installed; install then takes the new manifest's
// references under the lock, where it can tell whether that manifest is
// still the entry's (see install).
func (c *Cache) PutFromBase(id naming.ShadowID, base, version uint64, content []byte, sum uint32, spans []chunk.Span) error {
	e := slot{version: version, size: int64(len(content)), split: true, sum: sum}
	if spans != nil && (c.capacity <= 0 || e.size <= c.capacity) {
		if d, ok := c.derive(id, base, content, spans); ok {
			e.manifest = d.m
			c.install(id, e, &d)
			return nil
		}
	}
	return c.put(id, e, content)
}

// derived is a manifest m for content that PutFromBase derived from the
// resident manifest base, with from, Resplit's account of the base ref each
// ref of m copies.
type derived struct {
	base, m chunk.Manifest
	from    []int32
	content []byte
}

// derive is PutFromBase's derivation: ok is false when the resident entry is
// not version base as the cache split it, or Resplit refuses the spans.
func (c *Cache) derive(id naming.ShadowID, base uint64, content []byte, spans []chunk.Span) (derived, bool) {
	resident, ok := c.splitManifest(id, base)
	if !ok {
		return derived{}, false
	}
	m, from, ok := chunk.Resplit(resident, content, spans, c.params)
	if !ok {
		return derived{}, false
	}
	if race.Enabled && !slices.Equal(m, chunk.Split(content, c.params)) {
		panic(fmt.Sprintf("cache: entry %d: manifest derived from v%d differs from a full split", id, base))
	}
	return derived{base: resident, m: m, from: from, content: content}, true
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
// The manifest must not be used by the caller afterwards. The entry's sum is
// computed from the chunks.
func (c *Cache) PutManifest(id naming.ShadowID, version uint64, m chunk.Manifest) {
	segs, _ := c.store.AppendSegments(nil, m)
	c.PutVerifiedManifest(id, version, m, diff.ChecksumSegments(segs))
}

// PutVerifiedManifest is PutManifest for content the caller verified against
// sum (an assembly's whole-file check), which the entry records.
func (c *Cache) PutVerifiedManifest(id naming.ShadowID, version uint64, m chunk.Manifest, sum uint32) {
	c.install(id, slot{version: version, manifest: m, size: m.TotalLen(), sum: sum}, nil)
}

// install replaces the entry for id with e and enforces the capacity bound.
// The caller holds e.manifest's references, unless from says how it was
// derived: then install takes them under the shard lock. While the entry
// still holds from's base manifest, the base's references pass to the new
// manifest where it copies the base's refs (chunk.Store.Rebase) and the
// replaced manifest is not released again; otherwise — the base was replaced
// or evicted after the derivation — the new manifest's chunks are stored from
// the content, as Put stores them.
func (c *Cache) install(id naming.ShadowID, e slot, from *derived) {
	if c.capacity > 0 {
		c.evictMu.Lock()
		defer c.evictMu.Unlock()
	}
	sh := c.shardOf(id)
	sh.mu.Lock()
	handedOver := false
	if from != nil {
		if s, ok := sh.entries[id]; ok && sameManifest(s.manifest, from.base) {
			c.store.Rebase(from.base, e.manifest, from.from, from.content)
			handedOver = true
		} else {
			c.store.PutChunks(e.manifest, from.content)
		}
	}
	old := c.storeLocked(sh, id, e)
	sh.mu.Unlock()
	if !handedOver {
		c.store.ReleaseManifest(old)
	}
	if c.capacity <= 0 {
		return
	}
	// Only install (under evictMu) grows unique bytes, so the loop cannot
	// be starved by concurrent growth.
	for c.store.UniqueBytes() > c.capacity {
		if !c.evictOne(id) {
			break
		}
	}
}

// sameManifest reports whether a and b are one installed manifest, not
// merely equal ones: an entry replaced by the same content holds references
// of its own.
func sameManifest(a, b chunk.Manifest) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
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
func (c *Cache) storeLocked(sh *shard, id naming.ShadowID, e slot) chunk.Manifest {
	e.lastUsed = c.seq.Add(1)
	if old, ok := sh.entries[id]; ok {
		c.logicalBytes.Add(e.size - old.size)
		prev := old.manifest
		*old = e
		return prev
	}
	fresh := new(slot) // not &e, which would move every install's e to the heap
	*fresh = e
	sh.entries[id] = fresh
	c.logicalBytes.Add(e.size)
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
