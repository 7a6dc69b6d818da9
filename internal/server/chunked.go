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
// Gap fetches coalesce across sessions and links through srv.chunkFl: when
// many users upload near-identical fresh content at once, the first assembly
// to miss a chunk claims its fetch and the rest wait; one CHUNK_DATA answer
// completes every waiting assembly.
//
// Server lock order, outermost first — as the code has it, checked against
// every acquisition in the package:
//
//	waitMu → j.mu
//	a jobs-table shard (read; JobCounts) → j.mu
//	peerWaitMu → a flights shard
//	ss.mu → chunkFl.mu, a chunk-store shard, a flights shard
//	deliverMu → a sessions-table shard (read)
//	tagMu → a jobs-table shard
//	peerMu → startMu (read) → a sessions-table shard
//
// Nothing else nests. j.mu, deltaMu, flightMu, scriptMu, chunkFl.mu and the
// flights, chunk-store and table shards are leaves (deltaMu is also taken
// from the cache's evict hook, which the cache calls with none of its own
// locks held and the server calls into with none of these held); startMu's
// write side (Close) is held alone; the tracer's own mutex, outside this
// package, is a leaf under ss.mu and j.mu where spans start and finish.
// peerMu is the one lock held across blocking I/O — a first-use dial and
// handshake — so nothing is ever acquired before it. Two rules carry the
// rest:
//   - a pendingAssembly is mutated only under its session's ss.mu once it is
//     registered in ss.assembling (before registration it is goroutine-local);
//   - no goroutine ever holds two session mutexes, and no send, feed, repull
//     or teardown runs under any mutex above: waiter notifications
//     (resolveChunk on another session) run only with no mutex held.

import (
	"fmt"
	"slices"

	"shadowedit/internal/chunk"
	"shadowedit/internal/diff"
	"shadowedit/internal/naming"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// pendingAssembly is one in-progress chunked arrival, on a client session or
// a link: the manifest of the incoming version plus the references already
// acquired on its chunks. The
// references are pins — cache pressure cannot free these chunks while the
// transfer is in flight — and are either transferred to the cache entry on
// completion or released on abort (incomplete answer, checksum mismatch,
// supersession, session death).
type pendingAssembly struct {
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
	// owned lists the hashes whose cross-session fetch this assembly claimed
	// in srv.chunkFl; gaps absent from owned are riding another session's
	// flight. A hash in owned but no longer in missing has arrived.
	owned []chunk.Hash
	// awaiting counts ChunkReqs sent whose answers have not come back. Once
	// it reaches zero, an owned hash still missing means the client could not
	// supply it.
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

// chunkNotice defers waiter notification for one arrived hash until the
// admitting goroutine has dropped its session mutex.
type chunkNotice struct {
	h       chunk.Hash
	waiters []chunkWaiter
}

// notifyWaiters pokes every waiter of every notice. Callers must hold no
// session mutex.
func notifyWaiters(notices []chunkNotice) {
	for _, n := range notices {
		for _, w := range n.waiters {
			w.ss.resolveChunk(w.id, n.h)
		}
	}
}

// ingestManifest starts (and, when nothing is missing, finishes) the assembly
// of a version described as chunk refs: a client's FILE_MANIFEST, or an
// owner's PEER_CHUNK rewritten as a manifest with no inline chunks.
func (ss *session) ingestManifest(m *wire.FileManifest, tc wire.TraceContext) error {
	sp := ss.srv.cfg.Obs.StartSpan(tc, "server.apply-manifest").SetSession(ss.id)
	if sp != nil {
		sp.SetFile(m.File.String())
	}
	defer sp.Finish()
	id := ss.srv.dir.Intern(m.File)
	if have, ok := ss.srv.cache.Version(id); ok && have >= m.Version {
		// Duplicate or overtaken transfer; re-acknowledge idempotently.
		sp.Annotate("duplicate")
		ss.abortAssembly(id, 0) // drop any older in-progress assembly too
		ss.closePull(id, have)
		return ss.ack(m.File, have, tc)
	}
	// A newer manifest supersedes any assembly still in flight for the file.
	ss.abortAssembly(id, m.Version)

	store := ss.srv.cache.ChunkStore()
	pa := &pendingAssembly{
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
	for _, ic := range m.Inline {
		if int(ic.Index) >= len(pa.manifest) {
			notifyWaiters(notices)
			ss.releaseAssembly(pa)
			return fmt.Errorf("manifest for %s: inline index %d out of range", m.File, ic.Index)
		}
		want := pa.manifest[ic.Index]
		if pa.missing[want.Hash] == 0 {
			continue // already resident (or a duplicate inline)
		}
		ws, err := ss.admitChunk(pa, want.Hash, ic.Data)
		if len(ws) > 0 {
			notices = append(notices, chunkNotice{h: want.Hash, waiters: ws})
		}
		if err != nil {
			// Deliver what did arrive before dropping our pins, so waiters
			// can take their own references while the chunks are resident.
			notifyWaiters(notices)
			ss.releaseAssembly(pa)
			return fmt.Errorf("manifest for %s: %w", m.File, err)
		}
	}
	if len(pa.missing) == 0 {
		notifyWaiters(notices)
		sp.Annotate("complete")
		return ss.finishAssembly(id, pa, sp)
	}
	// Gaps remain. The steady state (delta-as-chunks with the base cached)
	// never gets here; eviction recovery, cold caches, and concurrent
	// same-content uploads do. Register the assembly, then per gap either
	// claim the fetch or ride a flight another session already owns.
	pa.fetched = true
	gaps := make([]chunk.Hash, 0, len(pa.missing))
	for h := range pa.missing {
		gaps = append(gaps, h)
	}
	req := &wire.ChunkReq{File: m.File, Version: m.Version}
	ss.mu.Lock()
	ss.assembling[id] = pa
	for _, h := range gaps {
		// A waited-on chunk may have landed between the first pass and
		// registration; pin it now rather than wait on a retired flight.
		if store.Ref(h) {
			pa.hold(store, h)
			continue
		}
		if ss.srv.chunkFl.claim(h, ss, id) {
			pa.owned = append(pa.owned, h)
			req.Hashes = append(req.Hashes, h)
		}
	}
	done := len(pa.missing) == 0
	if done {
		delete(ss.assembling, id)
	} else if len(req.Hashes) > 0 {
		pa.awaiting++
	}
	ss.mu.Unlock()
	notifyWaiters(notices)
	if done {
		sp.Annotate("complete")
		return ss.finishAssembly(id, pa, sp)
	}
	if len(req.Hashes) == 0 {
		// Every gap is already in flight through another session; this
		// assembly completes when those chunks land, costing no wire bytes.
		sp.Annotate("chunks-coalesced")
		return nil
	}
	ss.srv.counters.AddChunksRequested(len(req.Hashes))
	sp.Annotate("chunks-requested")
	return ss.sendTraced(req, tc)
}

func (ss *session) handleChunkData(m *wire.ChunkData, tc wire.TraceContext) error {
	sp := ss.srv.cfg.Obs.StartSpan(tc, "server.apply-chunks").SetSession(ss.id)
	if sp != nil {
		sp.SetFile(m.File.String())
	}
	defer sp.Finish()
	id := ss.srv.dir.Intern(m.File)
	ss.mu.Lock()
	pa := ss.assembling[id]
	if pa == nil || pa.version != m.Version {
		ss.mu.Unlock()
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
		ws, err := ss.admitChunk(pa, h, blob.Data)
		if len(ws) > 0 {
			notices = append(notices, chunkNotice{h: h, waiters: ws})
		}
		if err != nil {
			admitErr = fmt.Errorf("chunk data for %s: %w", m.File, err)
			break
		}
	}
	var done, incomplete bool
	switch {
	case admitErr != nil:
		delete(ss.assembling, id)
	case len(pa.missing) == 0:
		delete(ss.assembling, id)
		done = true
	case pa.awaiting == 0 && pa.ownedMissing():
		// Every request of ours is answered, yet chunks we asked for did
		// not come: the source no longer has them (a client's version store
		// moved on, an owner's cache evicted them). Gaps riding other
		// sessions' flights alone would keep the assembly waiting instead.
		delete(ss.assembling, id)
		incomplete = true
	}
	ss.mu.Unlock()
	notifyWaiters(notices)
	switch {
	case admitErr != nil:
		ss.failAssembly(pa)
		return admitErr
	case done:
		sp.Annotate("complete")
		return ss.finishAssembly(id, pa, sp)
	case incomplete:
		// Drop the assembly and fetch the file's current head whole — the
		// convergent fallback.
		sp.Annotate("incomplete")
		ss.failAssembly(pa)
		ss.srv.counters.AddFullFallback()
		return ss.refetch(m.File, m.Version, tc, "incomplete chunk answer")
	}
	sp.Annotate("waiting") // remaining gaps ride other sessions' flights
	return nil
}

// resolveChunk is the cross-session poke: the flight for h retired (the
// chunk arrived somewhere, or its fetch died) and this session's assembly
// for id was waiting on it. Resolve against the store first; if the chunk is
// not there after all, claim a fresh fetch from this session's own source —
// its manifest advertised the hash, so it can supply it.
func (ss *session) resolveChunk(id naming.ShadowID, h chunk.Hash) {
	store := ss.srv.cache.ChunkStore()
	ss.mu.Lock()
	pa := ss.assembling[id]
	if pa == nil || pa.missing[h] == 0 {
		ss.mu.Unlock()
		return
	}
	if !store.Ref(h) {
		claimed := ss.srv.chunkFl.claim(h, ss, id)
		if claimed {
			pa.owned = append(pa.owned, h)
			pa.awaiting++
		}
		ss.mu.Unlock()
		if claimed {
			ss.srv.counters.AddChunksRequested(1)
			_ = ss.sendTraced(&wire.ChunkReq{File: pa.ref, Version: pa.version,
				Hashes: [][chunk.HashSize]byte{h}}, pa.tc)
		}
		return
	}
	pa.hold(store, h)
	done := len(pa.missing) == 0
	if done {
		delete(ss.assembling, id)
	}
	ss.mu.Unlock()
	if done {
		// A send failure here means this waiter session is dying; its
		// teardown releases the assembly state.
		_ = ss.finishAssembly(id, pa, nil)
	}
}

// admitChunk verifies an arriving chunk's address against the assembly's
// manifest, stores it, and acquires one reference per manifest slot that
// needs it. The caller must have checked pa.missing[h] > 0, must hold ss.mu
// if pa is registered, and must deliver the returned waiters (via
// notifyWaiters) once no session mutex is held.
func (ss *session) admitChunk(pa *pendingAssembly, h chunk.Hash, data []byte) ([]chunkWaiter, error) {
	if chunk.HashOf(data) != h {
		return nil, fmt.Errorf("chunk %x: content does not match its address", h[:4])
	}
	store := ss.srv.cache.ChunkStore()
	store.Put(h, data)
	pa.hold(store, h)
	return ss.srv.chunkFl.arrived(h), nil
}

// finishAssembly reassembles the completed version, verifies its whole-file
// checksum, installs the manifest in the cache (transferring this assembly's
// chunk references to the entry), and runs the shared arrival bookkeeping.
// The assembly must already be deregistered from ss.assembling. apply is the
// caller's span, if it has one, which arrived ends.
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
		ss.releaseAssembly(pa)
		ss.srv.counters.AddFullFallback()
		return ss.refetch(pa.ref, pa.version, pa.tc, "checksum mismatch")
	}
	if pa.fetched {
		ss.srv.counters.AddRehydration()
	}
	ss.srv.cache.PutManifest(id, pa.version, pa.manifest)
	pa.held = nil // references now belong to the cache entry
	return ss.arrived(pa.ref, id, pa.version, content, pa.tc, apply)
}

// abortAssembly drops an in-progress assembly for id whose version is below
// newer (0 = any), releasing its chunk references and failing any chunk
// flights it owned.
func (ss *session) abortAssembly(id naming.ShadowID, newer uint64) {
	ss.mu.Lock()
	pa := ss.assembling[id]
	if pa == nil || (newer != 0 && pa.version >= newer) {
		ss.mu.Unlock()
		return
	}
	delete(ss.assembling, id)
	ss.mu.Unlock()
	ss.failAssembly(pa)
}

// failAssembly disposes of a dead, already-deregistered assembly: chunk
// fetches it owned that never arrived are failed so their waiters can claim
// fresh fetches from their own sources, then its references are released.
// Callers must hold no session mutex.
func (ss *session) failAssembly(pa *pendingAssembly) {
	for _, h := range pa.owned {
		if pa.missing[h] == 0 {
			continue
		}
		for _, w := range ss.srv.chunkFl.fail(h) {
			w.ss.resolveChunk(w.id, h)
		}
	}
	pa.owned = nil
	ss.releaseAssembly(pa)
}

// releaseAssembly returns every chunk reference the assembly holds.
func (ss *session) releaseAssembly(pa *pendingAssembly) {
	store := ss.srv.cache.ChunkStore()
	for _, h := range pa.held {
		store.Release(h)
	}
	pa.held = nil
}

// releaseAssemblies drops every in-progress assembly (session teardown):
// the pins die with the session, so eviction regains its full freedom, and
// owned chunk flights fail over to their waiters.
func (ss *session) releaseAssemblies() {
	ss.mu.Lock()
	pending := make([]*pendingAssembly, 0, len(ss.assembling))
	for id, pa := range ss.assembling {
		pending = append(pending, pa)
		delete(ss.assembling, id)
	}
	ss.mu.Unlock()
	for _, pa := range pending {
		ss.failAssembly(pa)
	}
}
