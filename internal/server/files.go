package server

import (
	"sync"

	"shadowedit/internal/naming"
	"shadowedit/internal/wire"
)

// fileTable is the server's conversation state per file, one record per
// file under one shard lock: the fetch in flight, the jobs waiting on the
// file, the peer requests parked on the fetch, and the last client delta kept
// for forwarding to peers. The cache holds the content; the table holds what
// the server is in the middle of deciding about it.
//
// A file has at most one fetch in flight across every session and link: the
// first pull goes out on the wire and its arrival feeds everyone. The paper's
// demand-driven design (§5.2) makes this safe — a pull is a server-side
// optimization, never a protocol obligation. The flight names the session
// that issued the pull, so that session's death hands the fetch back for
// re-issue through a survivor.
//
// Every transition on a file takes the one shard lock, so an arrival settles
// the flight, the jobs and the parked requests together, and a request can
// never park on a fetch that was just given up. Sends, feeds, repulls and
// declines run after the lock is dropped. Records are never removed: like the
// directory's names they are bounded by the files the server has seen, and a
// file's next cycle reuses its record. Each shard indexes the records holding
// a flight or a parked request (open), so a session's teardown visits what is
// in flight, not every file ever seen.
type fileTable struct {
	shards [tableShards]fileShard
}

type fileShard struct {
	mu   sync.Mutex
	m    map[naming.ShadowID]*fileRecord
	open map[naming.ShadowID]*fileRecord
}

// fileRecord is one file's entry; each parked peer request wants a version
// the flight covers.
type fileRecord struct {
	fetching bool
	flight   pendingFetch
	jobs     []*job
	peers    []peerWant
	delta    *storedDelta
}

// pendingFetch is one file retrieval in flight: the version asked for, the
// session that asked (owner), and the trace context of the cycle that caused
// it — a re-issued pull stays part of the original causal trace.
type pendingFetch struct {
	ref   wire.FileRef
	want  uint64
	owner uint64
	tc    wire.TraceContext
}

func (t *fileTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[naming.ShadowID]*fileRecord)
		t.shards[i].open = make(map[naming.ShadowID]*fileRecord)
	}
}

// lock takes id's shard lock and returns its record, made on first use. The
// caller releases the lock with unlock.
func (t *fileTable) lock(id naming.ShadowID) (*fileShard, *fileRecord) {
	sh := &t.shards[uint64(id)%tableShards]
	sh.mu.Lock()
	r := sh.m[id]
	if r == nil {
		r = &fileRecord{}
		sh.m[id] = r
	}
	return sh, r
}

// unlock files r in or out of the shard's open index and drops the lock.
func (sh *fileShard) unlock(id naming.ShadowID, r *fileRecord) {
	sh.settle(id, r)
	sh.mu.Unlock()
}

func (sh *fileShard) settle(id naming.ShadowID, r *fileRecord) {
	if r.fetching || len(r.peers) > 0 {
		sh.open[id] = r
	} else {
		delete(sh.open, id)
	}
}

// sweep visits every record holding a flight or a parked request, shard by
// shard under the shard's lock; visit may change the record.
func (t *fileTable) sweep(visit func(*fileRecord)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for id, r := range sh.open {
			visit(r)
			sh.settle(id, r)
		}
		sh.mu.Unlock()
	}
}

// begin registers the fetch f of id. It reports true when the caller should
// issue the pull; false when a fetch of this version or a newer one is
// already in flight and this one coalesces onto it. force replaces whatever
// is in flight: the previous fetch's answer proved unusable.
func (t *fileTable) begin(id naming.ShadowID, f pendingFetch, force bool) bool {
	sh, r := t.lock(id)
	won := force || !r.fetching || r.flight.want < f.want
	if won {
		r.fetching, r.flight = true, f
	}
	sh.unlock(id, r)
	return won
}

// release drops id's flight if session owner still holds it, and returns it.
// Requests parked on it stay parked: the caller re-issues the fetch or
// declines them (repullPending).
func (t *fileTable) release(id naming.ShadowID, owner uint64) (pendingFetch, bool) {
	sh, r := t.lock(id)
	f, ok := r.flight, r.fetching && r.flight.owner == owner
	if ok {
		r.fetching = false
	}
	sh.unlock(id, r)
	return f, ok
}

// dropSession takes what a dead session leaves in the table: the flights it
// owned, to be re-issued elsewhere, and — a peer's — the requests it parked,
// which nothing can answer now.
func (t *fileTable) dropSession(ss *session) (fetches []pendingFetch, orphans []peerWant) {
	t.sweep(func(r *fileRecord) {
		if r.fetching && r.flight.owner == ss.id {
			fetches = append(fetches, r.flight)
			r.fetching = false
		}
		kept := r.peers[:0]
		for _, w := range r.peers {
			if w.ss == ss {
				orphans = append(orphans, w)
			} else {
				kept = append(kept, w)
			}
		}
		clear(r.peers[len(kept):])
		r.peers = kept
	})
	return fetches, orphans
}

// fetches lists every retrieval in flight (introspection).
func (t *fileTable) fetches() []pendingFetch {
	var out []pendingFetch
	t.sweep(func(r *fileRecord) {
		if r.fetching {
			out = append(out, r.flight)
		}
	})
	return out
}

// addJob indexes j under a file one of its inputs waits for.
func (t *fileTable) addJob(id naming.ShadowID, j *job) {
	sh, r := t.lock(id)
	r.jobs = append(r.jobs, j)
	sh.unlock(id, r)
}

// arrive settles what version of id, just stored or found in the cache,
// decides. The flight it completes closes. With content, every waiting input
// it satisfies is fed a reference to it and its job appended to ready.
// Parked requests it satisfies come back in answer; those it falls short of
// stay parked while a flight covers them and come back in decline otherwise.
// Version 0 and no content declines exactly the requests no flight covers
// any more — what an abandoned fetch leaves.
func (t *fileTable) arrive(id naming.ShadowID, version uint64, content *fileBuf, ready []*job) (_ []*job, answer, decline []peerWant) {
	sh, r := t.lock(id)
	if r.fetching && r.flight.want <= version {
		r.fetching = false
	}
	if content != nil {
		still := r.jobs[:0]
		for _, j := range r.jobs {
			fed, short := false, false
			j.mu.Lock()
			for i := range j.ins {
				in := &j.ins[i]
				switch {
				case in.id != id || !in.waiting:
				case version >= in.want:
					in.waiting, in.buf = false, content.retain()
					fed = true
				default:
					short = true
				}
			}
			j.mu.Unlock()
			if fed {
				ready = append(ready, j)
			}
			if short {
				still = append(still, j)
			}
		}
		// The vacated tail is cleared so it does not pin jobs long retired.
		clear(r.jobs[len(still):])
		r.jobs = still
	}
	kept := r.peers[:0]
	for _, w := range r.peers {
		switch {
		case version >= w.want:
			answer = append(answer, w)
		case r.fetching && r.flight.want >= w.want:
			kept = append(kept, w)
		default:
			decline = append(decline, w)
		}
	}
	clear(r.peers[len(kept):])
	r.peers = kept
	sh.unlock(id, r)
	return ready, answer, decline
}

// setDelta keeps d, a client's delta to id, for forwarding to peers (nil
// drops it).
func (t *fileTable) setDelta(id naming.ShadowID, d *storedDelta) {
	sh, r := t.lock(id)
	r.delta = d
	sh.unlock(id, r)
}
