// Package metrics provides the byte, message and timing accounting shared by
// the client, the server and the experiment harness. The paper's evaluation
// reports total elapsed time per edit–submit–fetch cycle; the harness
// additionally reports the traffic breakdown that explains it (delta bytes
// vs. full bytes vs. control messages).
package metrics

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// Counters aggregates transfer activity. The zero value is ready to use.
// All updates are atomic: counters sit on every message path, so they must
// never serialize concurrent sessions.
type Counters struct {
	deltaBytes   atomic.Int64
	fullBytes    atomic.Int64
	controlBytes atomic.Int64
	outputBytes  atomic.Int64
	messages     atomic.Int64
	deltaSends   atomic.Int64
	fullSends    atomic.Int64

	reconnects    atomic.Int64
	retries       atomic.Int64
	fullFallbacks atomic.Int64

	manifestBytes atomic.Int64
	chunkBytes    atomic.Int64
	manifestSends atomic.Int64
	chunkSends    atomic.Int64
	chunksAsked   atomic.Int64
	rehydrations  atomic.Int64

	peerForwards      atomic.Int64
	peerDeltaBytes    atomic.Int64
	peerManifestBytes atomic.Int64
	peerChunkBytes    atomic.Int64
	deltaBytesSaved   atomic.Int64
	ownerMisses       atomic.Int64
	ringRebalances    atomic.Int64
	peerNegatives     atomic.Int64
}

// AddDelta records a delta transfer of n payload bytes.
func (c *Counters) AddDelta(n int) {
	c.deltaBytes.Add(int64(n))
	c.deltaSends.Add(1)
	c.messages.Add(1)
}

// AddFull records a full-content transfer of n payload bytes.
func (c *Counters) AddFull(n int) {
	c.fullBytes.Add(int64(n))
	c.fullSends.Add(1)
	c.messages.Add(1)
}

// AddControl records a control message of n payload bytes (notify, pull,
// ack, submit, status).
func (c *Counters) AddControl(n int) {
	c.controlBytes.Add(int64(n))
	c.messages.Add(1)
}

// AddOutput records delivered job output bytes.
func (c *Counters) AddOutput(n int) {
	c.outputBytes.Add(int64(n))
	c.messages.Add(1)
}

// AddReconnect records one successful session re-establishment.
func (c *Counters) AddReconnect() { c.reconnects.Add(1) }

// AddRetry records one retried request attempt (after a transient failure).
func (c *Counters) AddRetry() { c.retries.Add(1) }

// AddFullFallback records a delta transfer that degraded to a full copy
// because its base was evicted or lost.
func (c *Counters) AddFullFallback() { c.fullFallbacks.Add(1) }

// AddManifest records a chunk-manifest transfer whose refs and inline chunks
// total n payload bytes (protocol v3's delta-as-chunks answer to a pull).
func (c *Counters) AddManifest(n int) {
	c.manifestBytes.Add(int64(n))
	c.manifestSends.Add(1)
	c.messages.Add(1)
}

// AddChunkData records a chunk-data transfer of n payload bytes — the
// missing-chunks-only path that replaces whole-file retransmission.
func (c *Counters) AddChunkData(n int) {
	c.chunkBytes.Add(int64(n))
	c.chunkSends.Add(1)
	c.messages.Add(1)
}

// AddChunksRequested records n chunk hashes asked for via CHUNK_REQ.
func (c *Counters) AddChunksRequested(n int) { c.chunksAsked.Add(int64(n)) }

// AddRehydration records one file version completed by fetching only its
// missing chunks (an eviction or cold cache repaired without a full copy).
func (c *Counters) AddRehydration() { c.rehydrations.Add(1) }

// AddPeerForward records one file version served to (or from) a cluster
// peer as a delta or chunk manifest instead of a client pull; saved is the
// full-content byte count the peer transfer avoided re-sending (0 when
// unknown).
func (c *Counters) AddPeerForward(saved int) {
	c.peerForwards.Add(1)
	c.deltaBytesSaved.Add(int64(saved))
}

// AddPeerDelta records a peer-forwarded delta of n payload bytes.
func (c *Counters) AddPeerDelta(n int) {
	c.peerDeltaBytes.Add(int64(n))
	c.messages.Add(1)
}

// AddPeerManifest records a peer chunk manifest of n payload bytes.
func (c *Counters) AddPeerManifest(n int) {
	c.peerManifestBytes.Add(int64(n))
	c.messages.Add(1)
}

// AddPeerChunkData records peer-fetched chunk payload of n bytes.
func (c *Counters) AddPeerChunkData(n int) {
	c.peerChunkBytes.Add(int64(n))
	c.messages.Add(1)
}

// AddPeerNegative records a peer fetch the owner declined ("pull from the
// client yourself").
func (c *Counters) AddPeerNegative() { c.peerNegatives.Add(1) }

// AddOwnerMiss records a request routed to a file's ring owner that had to
// fall through to a successor because the owner was unreachable.
func (c *Counters) AddOwnerMiss() { c.ownerMisses.Add(1) }

// AddRingRebalance records one file fetch re-homed after a peer link died
// (cluster membership effectively changed for that flight).
func (c *Counters) AddRingRebalance() { c.ringRebalances.Add(1) }

// Snapshot is an immutable view of the counters. The cache and flow-control
// fields are filled in by holders that track them (the server); a bare
// Counters leaves them zero.
type Snapshot struct {
	DeltaBytes   int64
	FullBytes    int64
	ControlBytes int64
	OutputBytes  int64
	Messages     int64
	DeltaSends   int64
	FullSends    int64

	// Cache efficacy for the same run (server-side).
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	CacheRejected  int64

	// Flow control: pulls issued, deferred by policy, and coalesced into
	// another session's in-flight fetch.
	PullsIssued    int64
	PullsDeferred  int64
	PullsCoalesced int64

	// Fault tolerance: reconnects completed, request attempts retried, and
	// delta transfers degraded to full copies.
	Reconnects    int64
	Retries       int64
	FullFallbacks int64

	// Chunk transfer (protocol v3): manifest and chunk payload bytes,
	// frame counts, chunk hashes requested, and versions completed by
	// chunk-level rehydration instead of a full retransmit.
	ManifestBytes   int64
	ChunkBytes      int64
	ManifestSends   int64
	ChunkSends      int64
	ChunksRequested int64
	Rehydrations    int64

	// Cluster peering (protocol v5): versions forwarded between instances
	// as deltas or manifests, the peer payload byte breakdown, full-content
	// bytes those forwards avoided, owner fall-throughs on the client side,
	// and flights re-homed after a peer died.
	PeerForwards      int64
	PeerDeltaBytes    int64
	PeerManifestBytes int64
	PeerChunkBytes    int64
	PeerNegatives     int64
	DeltaBytesSaved   int64
	OwnerMisses       int64
	RingRebalances    int64

	// Ring heat (server-side fill-in): file-demand touches recorded by the
	// heat tracker — one per notify or job input examined. The per-file and
	// per-owner breakdown lives on the admin /clusterz surface; this total
	// makes fleet-wide demand summable like every other counter.
	FileTouches int64
}

// TotalBytes sums all payload bytes.
func (s Snapshot) TotalBytes() int64 {
	return s.DeltaBytes + s.FullBytes + s.ControlBytes + s.OutputBytes +
		s.ManifestBytes + s.ChunkBytes
}

// FileBytes sums the payload bytes of file-content transfers (delta, full,
// manifest and chunk frames) — the quantity chunk-level dedup reduces.
func (s Snapshot) FileBytes() int64 {
	return s.DeltaBytes + s.FullBytes + s.ManifestBytes + s.ChunkBytes
}

// String renders a compact human-readable summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("bytes: %d delta, %d full, %d control, %d output; msgs %d (%d delta, %d full sends)",
		s.DeltaBytes, s.FullBytes, s.ControlBytes, s.OutputBytes, s.Messages, s.DeltaSends, s.FullSends)
}

// FaultString renders the fault-tolerance extension fields.
func (s Snapshot) FaultString() string {
	return fmt.Sprintf("faults: %d reconnects, %d retries, %d full fallbacks",
		s.Reconnects, s.Retries, s.FullFallbacks)
}

// CacheString renders the cache/flow extension fields.
func (s Snapshot) CacheString() string {
	return fmt.Sprintf("cache: %d hits, %d misses, %d evictions; pulls: %d issued, %d deferred, %d coalesced",
		s.CacheHits, s.CacheMisses, s.CacheEvictions, s.PullsIssued, s.PullsDeferred, s.PullsCoalesced)
}

// Merge returns the field-wise sum of two snapshots. Every Snapshot field
// is a monotonic total with send-side-only accounting on the peer paths, so
// summing across cluster members never double-counts a transfer; the admin
// /clusterz view uses this to read the fleet as one shadow cache.
// Implemented by reflection over the struct so a newly added counter can
// never be silently dropped from fleet sums.
func Merge(a, b Snapshot) Snapshot {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Field(i)
		f.SetInt(f.Int() + vb.Field(i).Int())
	}
	return a
}

// Snapshot returns the current totals.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		DeltaBytes:   c.deltaBytes.Load(),
		FullBytes:    c.fullBytes.Load(),
		ControlBytes: c.controlBytes.Load(),
		OutputBytes:  c.outputBytes.Load(),
		Messages:     c.messages.Load(),
		DeltaSends:   c.deltaSends.Load(),
		FullSends:    c.fullSends.Load(),

		Reconnects:    c.reconnects.Load(),
		Retries:       c.retries.Load(),
		FullFallbacks: c.fullFallbacks.Load(),

		ManifestBytes:   c.manifestBytes.Load(),
		ChunkBytes:      c.chunkBytes.Load(),
		ManifestSends:   c.manifestSends.Load(),
		ChunkSends:      c.chunkSends.Load(),
		ChunksRequested: c.chunksAsked.Load(),
		Rehydrations:    c.rehydrations.Load(),

		PeerForwards:      c.peerForwards.Load(),
		PeerDeltaBytes:    c.peerDeltaBytes.Load(),
		PeerManifestBytes: c.peerManifestBytes.Load(),
		PeerChunkBytes:    c.peerChunkBytes.Load(),
		PeerNegatives:     c.peerNegatives.Load(),
		DeltaBytesSaved:   c.deltaBytesSaved.Load(),
		OwnerMisses:       c.ownerMisses.Load(),
		RingRebalances:    c.ringRebalances.Load(),
	}
}
