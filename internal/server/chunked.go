package server

// Chunked arrivals, the one assembly. A version described as content-
// addressed chunk refs reaches a session two ways: a client answers a pull
// with a FILE_MANIFEST, inlining the chunks it believes the server lacks, and
// an owner answers a link's PEER_NOTIFY with a PEER_CHUNK, which inlines
// nothing. Either way the server resolves every ref already resident in the
// shared chunk store (taking a reference, which pins the chunk against cache
// eviction for the life of the assembly), stores the inline chunks, and
// requests only the remaining gaps with a CHUNK_REQ on the same session. A
// version therefore never travels wholesale: after eviction, re-fetching a
// file costs exactly the chunks that are actually gone.
//
// The assembly is the file's: it lives in the file's record (files.go) under
// the record's shard lock, one per file, naming the session its chunks are
// asked of. Gap fetches coalesce across files through srv.chunkFl: when many
// users upload near-identical fresh content at once, the first assembly to
// miss a chunk claims its fetch and the rest wait; one CHUNK_DATA answer
// completes every waiting assembly.
//
// Server lock order, outermost first — as the code has it, checked against
// every acquisition in the package:
//
//	a files shard → j.mu, a cache shard (park), chunkFl.mu, a chunk-store shard
//	tagMu → a jobs-table shard (read in JobCounts, JobStats) → j.mu
//	deliverMu → a sessions-table shard (read)
//	peerMu → startMu (read) → a sessions-table shard
//
// Nothing else nests. ss.mu, j.mu, flightMu, scriptMu, chunkFl.mu and the
// chunk-store, cache and table shards are leaves (a files shard is also taken
// from the cache's evict hook, which the cache calls with none of its own
// locks held); startMu's write side (Close) is held alone; the tracer's own
// mutex, outside this package, is a leaf under a files shard and j.mu where
// spans start and finish. peerMu is the one lock held across blocking I/O — a
// first-use dial and handshake — so nothing is ever acquired before it. No
// goroutine holds two files shards, and no send, feed, repull or teardown runs
// under any mutex above: a poke of the assemblies waiting on a chunk
// (resolveChunk on another file) runs only with no files shard held.

import (
	"fmt"
	"slices"

	"shadowedit/internal/chunk"
	"shadowedit/internal/diff"
	"shadowedit/internal/naming"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// pendingAssembly is one in-progress chunked arrival, the file's one
// assembly in its fileRecord: the manifest of the incoming version plus the
// references already acquired on its chunks, and the session the missing
// chunks are asked of. The references are pins — cache pressure cannot free
// these chunks while the transfer is in flight — and are either transferred
// to the cache entry on completion or released when the assembly dies
// (incomplete answer, checksum mismatch, supersession, overtaking arrival,
// its source's death). Once registered in the record it is mutated only under
// the record's shard lock; before that it is goroutine-local.
type pendingAssembly struct {
	// src is the client session that answered with the manifest, or the
	// link an owner answered with a PEER_CHUNK.
	src     *session
	ref     wire.FileRef
	version uint64
	sum     uint32
	// manifest lists every chunk of the incoming version in order.
	manifest chunk.Manifest
	// held records one entry per reference this assembly holds (a hash
	// appearing k times in the manifest is held k times once resolved).
	held []chunk.Hash
	// missing counts, per absent hash, how many manifest slots need it.
	missing map[chunk.Hash]int
	// owned lists the hashes whose fetch this assembly claimed in
	// srv.chunkFl; gaps absent from owned are riding another file's flight.
	// A hash in owned but no longer in missing has arrived.
	owned []chunk.Hash
	// awaiting counts ChunkReqs sent whose answers have not come back. Once
	// it reaches zero, an owned hash still missing means the source could
	// not supply it.
	awaiting int
	// fetched is set once the assembly needed chunks beyond the manifest's
	// own inline data: completing afterwards is a rehydration (the transfer
	// was repaired at chunk granularity).
	fetched bool
	tc      wire.TraceContext
}

// hold marks h resolved: the caller has just taken one reference on it (a
// successful store.Ref, or the Put that admitted it); hold takes the rest, so
// that the assembly ends up holding one per manifest slot that needs h.
func (pa *pendingAssembly) hold(store *chunk.Store, h chunk.Hash) {
	for k := pa.missing[h]; k > 0; k-- {
		if k > 1 {
			store.Ref(h)
		}
		pa.held = append(pa.held, h)
	}
	delete(pa.missing, h)
}

// ownedMissing reports whether a hash this assembly claimed the fetch for is
// still missing.
func (pa *pendingAssembly) ownedMissing() bool {
	for _, h := range pa.owned {
		if pa.missing[h] > 0 {
			return true
		}
	}
	return false
}

// drop disposes of an assembly that will not complete, already out of its
// record (or never in one): the chunk fetches it claimed that never arrived
// fail, and its references are released. The failed fetches' waiters come
// back to be poked once no files shard lock is held; drop itself takes only
// leaf locks.
func (pa *pendingAssembly) drop(s *Server) []chunkNotice {
	var failed []chunkNotice
	for _, h := range pa.owned {
		if pa.missing[h] > 0 {
			failed = append(failed, chunkNotice{h: h, waiters: s.chunkFl.pop(h)})
		}
	}
	pa.owned = nil
	store := s.cache.ChunkStore()
	for _, h := range pa.held {
		store.Release(h)
	}
	pa.held = nil
	return failed
}

// chunkNotice defers waiter notification for one arrived or failed hash until
// the admitting goroutine has dropped the files shard lock.
type chunkNotice struct {
	h       chunk.Hash
	waiters []naming.ShadowID
}

// poke re-resolves every waiter of every notice. Callers must hold no files
// shard lock.
func (s *Server) poke(notices []chunkNotice) {
	for _, n := range notices {
		for _, id := range n.waiters {
			s.resolveChunk(id, n.h)
		}
	}
}

// ingestManifest starts (and, when nothing is missing, finishes) the assembly
// of a version described as chunk refs: a client's FILE_MANIFEST, or an
// owner's PEER_CHUNK rewritten as a manifest with no inline chunks.
//
// A file has one assembly. A manifest for a version the cache already holds
// is a duplicate or overtaken transfer. Otherwise, when another manifest's
// assembly of the file is in flight, one of the same or a newer version
// supersedes it: its pins go and the chunk fetches it claimed fail, so their
// waiters re-claim. An older one is overtaken by the assembly in flight and
// dropped. Either way the session whose manifest lost is owed a FILE_ACK,
// which the arrival that installs the file's version sends.
func (ss *session) ingestManifest(m *wire.FileManifest, tc wire.TraceContext) error {
	s := ss.srv
	sp := s.cfg.Obs.StartSpan(tc, "server.apply-manifest").SetSession(ss.id)
	if sp != nil {
		sp.SetFile(m.File.String())
	}
	defer sp.Finish()
	id := s.dir.Intern(m.File)
	if have, ok := s.cache.Version(id); ok && have >= m.Version {
		// Duplicate or overtaken transfer; re-acknowledge idempotently.
		sp.Annotate("duplicate")
		return s.arrived(ss, m.File, id, have, nil, tc, nil)
	}

	store := s.cache.ChunkStore()
	pa := &pendingAssembly{
		src:      ss,
		ref:      m.File,
		version:  m.Version,
		sum:      m.Sum,
		manifest: make(chunk.Manifest, len(m.Chunks)),
		missing:  make(map[chunk.Hash]int),
		tc:       tc,
	}
	for i, c := range m.Chunks {
		h := chunk.Hash(c.Hash)
		pa.manifest[i] = chunk.Ref{Hash: h, Len: c.Len}
		if store.Ref(h) {
			pa.held = append(pa.held, h)
		} else {
			pa.missing[h]++
		}
	}
	var notices []chunkNotice
	var err error
	for _, ic := range m.Inline {
		if int(ic.Index) >= len(pa.manifest) {
			err = fmt.Errorf("inline index %d out of range", ic.Index)
			break
		}
		want := pa.manifest[ic.Index]
		if pa.missing[want.Hash] == 0 {
			continue // already resident (or a duplicate inline)
		}
		var ws []naming.ShadowID
		if ws, err = s.admitChunk(pa, want.Hash, ic.Data); len(ws) > 0 {
			notices = append(notices, chunkNotice{h: want.Hash, waiters: ws})
		}
		if err != nil {
			break
		}
	}
	if err != nil {
		// Deliver what did arrive before dropping our pins, so waiters can
		// take their own references while the chunks are resident.
		s.poke(notices)
		pa.drop(s)
		return fmt.Errorf("manifest for %s: %w", m.File, err)
	}
	if len(pa.missing) == 0 {
		s.poke(notices)
		sp.Annotate("complete")
		return ss.finishAssembly(id, pa, sp)
	}
	// Gaps remain. The steady state (delta-as-chunks with the base cached)
	// never gets here; eviction recovery, cold caches, and concurrent
	// same-content uploads do. Register the assembly, then per gap either
	// claim the fetch or ride a flight another file's assembly already owns.
	pa.fetched = true
	gaps := make([]chunk.Hash, 0, len(pa.missing))
	for h := range pa.missing {
		gaps = append(gaps, h)
	}
	req := &wire.ChunkReq{File: m.File, Version: m.Version}
	sh, r := s.files.lock(id)
	old := r.asm
	if old != nil && old.version > m.Version {
		if old.src != ss {
			r.acks = append(r.acks, ackWant{ss: ss, ref: m.File, want: m.Version, tc: tc})
		}
		sh.unlock(id, r)
		s.poke(notices)
		pa.drop(s)
		sp.Annotate("overtaken")
		return nil
	}
	if old != nil {
		notices = append(notices, old.drop(s)...)
		if old.src != ss {
			r.acks = append(r.acks, ackWant{ss: old.src, ref: old.ref, want: old.version, tc: old.tc})
		}
	}
	r.asm = pa
	for _, h := range gaps {
		// A waited-on chunk may have landed between the first pass and
		// registration; pin it now rather than wait on a retired flight.
		if store.Ref(h) {
			pa.hold(store, h)
			continue
		}
		if s.chunkFl.claim(h, id) {
			pa.owned = append(pa.owned, h)
			req.Hashes = append(req.Hashes, h)
		}
	}
	done := len(pa.missing) == 0
	if done {
		r.asm = nil
	} else if len(req.Hashes) > 0 {
		pa.awaiting++
	}
	sh.unlock(id, r)
	s.poke(notices)
	if done {
		sp.Annotate("complete")
		return ss.finishAssembly(id, pa, sp)
	}
	if len(req.Hashes) == 0 {
		// Every gap is already in flight for another file; this assembly
		// completes when those chunks land, costing no wire bytes.
		sp.Annotate("chunks-coalesced")
		return nil
	}
	s.counters.AddChunksRequested(len(req.Hashes))
	sp.Annotate("chunks-requested")
	return ss.sendTraced(req, tc)
}

func (ss *session) handleChunkData(m *wire.ChunkData, tc wire.TraceContext) error {
	s := ss.srv
	sp := s.cfg.Obs.StartSpan(tc, "server.apply-chunks").SetSession(ss.id)
	if sp != nil {
		sp.SetFile(m.File.String())
	}
	defer sp.Finish()
	id := s.dir.Intern(m.File)
	sh, r := s.files.lock(id)
	pa := r.asm
	if pa == nil || pa.src != ss || pa.version != m.Version {
		sh.unlock(id, r)
		sp.Annotate("stale")
		return nil // answer to a superseded request; already handled
	}
	if pa.awaiting > 0 {
		pa.awaiting--
	}
	var notices []chunkNotice
	var admitErr error
	for _, blob := range m.Chunks {
		h := chunk.Hash(blob.Hash)
		if pa.missing[h] == 0 {
			continue
		}
		ws, err := s.admitChunk(pa, h, blob.Data)
		if len(ws) > 0 {
			notices = append(notices, chunkNotice{h: h, waiters: ws})
		}
		if err != nil {
			admitErr = fmt.Errorf("chunk data for %s: %w", m.File, err)
			break
		}
	}
	done := len(pa.missing) == 0
	// Every request of ours answered, yet chunks we asked for did not come:
	// the source no longer has them (a client's version store moved on, an
	// owner's cache evicted them). Gaps riding other files' flights alone
	// would keep the assembly waiting instead.
	incomplete := !done && pa.awaiting == 0 && pa.ownedMissing()
	if admitErr != nil || done || incomplete {
		r.asm = nil
	}
	sh.unlock(id, r)
	s.poke(notices)
	switch {
	case admitErr != nil:
		s.poke(pa.drop(s))
		return admitErr
	case done:
		sp.Annotate("complete")
		return ss.finishAssembly(id, pa, sp)
	case incomplete:
		// Drop the assembly and fetch the file's current head whole — the
		// convergent fallback.
		sp.Annotate("incomplete")
		s.poke(pa.drop(s))
		s.counters.AddFullFallback()
		return ss.refetch(m.File, m.Version, tc, "incomplete chunk answer")
	}
	sp.Annotate("waiting") // remaining gaps ride other files' flights
	return nil
}

// resolveChunk is the cross-file poke: the flight for h retired (the chunk
// arrived somewhere, or its fetch died) and id's assembly was waiting on it.
// Resolve against the store first; if the chunk is not there after all, claim
// a fresh fetch from the assembly's own source — its manifest advertised the
// hash, so it can supply it.
func (s *Server) resolveChunk(id naming.ShadowID, h chunk.Hash) {
	store := s.cache.ChunkStore()
	sh, r := s.files.lock(id)
	pa := r.asm
	if pa == nil || pa.missing[h] == 0 {
		sh.unlock(id, r)
		return
	}
	if !store.Ref(h) {
		claimed := s.chunkFl.claim(h, id)
		if claimed {
			pa.owned = append(pa.owned, h)
			pa.awaiting++
		}
		sh.unlock(id, r)
		if claimed {
			s.counters.AddChunksRequested(1)
			_ = pa.src.sendTraced(&wire.ChunkReq{File: pa.ref, Version: pa.version,
				Hashes: [][chunk.HashSize]byte{h}}, pa.tc)
		}
		return
	}
	pa.hold(store, h)
	done := len(pa.missing) == 0
	if done {
		r.asm = nil
	}
	sh.unlock(id, r)
	if done {
		// A send failure here means the source is dying; the arrival's
		// bookkeeping ran regardless.
		_ = pa.src.finishAssembly(id, pa, nil)
	}
}

// admitChunk verifies an arriving chunk's address against the assembly's
// manifest, stores it, and acquires one reference per manifest slot that
// needs it. The caller must have checked pa.missing[h] > 0, must hold the
// record's lock if pa is registered, and must poke the returned waiters once
// it holds no files shard lock.
func (s *Server) admitChunk(pa *pendingAssembly, h chunk.Hash, data []byte) ([]naming.ShadowID, error) {
	if chunk.HashOf(data) != h {
		return nil, fmt.Errorf("chunk %x: content does not match its address", h[:4])
	}
	store := s.cache.ChunkStore()
	store.Put(h, data)
	pa.hold(store, h)
	return s.chunkFl.pop(h), nil
}

// finishAssembly reassembles the completed version, verifies its whole-file
// checksum, installs the manifest in the cache (transferring this assembly's
// chunk references to the entry), and runs the shared arrival bookkeeping.
// ss is the assembly's source, and the assembly must already be out of its
// record. apply is the caller's span, if it has one, which arrived ends.
func (ss *session) finishAssembly(id naming.ShadowID, pa *pendingAssembly, apply *trace.Span) error {
	store := ss.srv.cache.ChunkStore()
	// Assembled for the checksum and for the jobs waiting on the file, in a
	// borrowed buffer that goes back when the last of them has run.
	content := ss.srv.bufs.borrow()
	var ok bool
	content.b, ok = store.AppendAssemble(slices.Grow(content.b, int(pa.manifest.TotalLen())), pa.manifest)
	if !ok || diff.Checksum(content.b) != pa.sum {
		// Lost a chunk we hold a reference on (a refcounting bug) or the
		// manifest did not describe the content it claimed (bytes or
		// lengths); either way the classic whole-file path repairs it.
		content.release()
		ss.srv.poke(pa.drop(ss.srv))
		ss.srv.counters.AddFullFallback()
		return ss.refetch(pa.ref, pa.version, pa.tc, "checksum mismatch")
	}
	if pa.fetched {
		ss.srv.counters.AddRehydration()
	}
	ss.srv.cache.PutVerifiedManifest(id, pa.version, pa.manifest, pa.sum)
	pa.held = nil // references now belong to the cache entry
	return ss.srv.arrived(ss, pa.ref, id, pa.version, content, pa.tc, apply)
}
