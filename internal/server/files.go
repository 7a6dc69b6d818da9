package server

import (
	"slices"
	"sync"
	"time"

	"shadowedit/internal/naming"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// fileTable is the server's conversation state per file, one record per
// file under one shard lock: the fetch in flight (the open pull), the chunk
// assembly, the jobs waiting on the file, the peer requests parked on the
// fetch, the acknowledgements owed, and the last client delta kept for
// forwarding to peers. The cache holds the content; the table holds what the
// server is in the middle of deciding about it.
//
// A file has at most one fetch in flight across every session and link: the
// first pull goes out on the wire and its arrival feeds everyone. The paper's
// demand-driven design (§5.2) makes this safe — a pull is a server-side
// optimization, never a protocol obligation. The flight names the session
// that issued the pull, so that session's death hands the fetch back for
// re-issue through a survivor. A file likewise has at most one chunk assembly
// (chunked.go), which names the session its chunks come from.
//
// Every transition on a file takes the one shard lock, so an arrival settles
// all of it together, and a request can never park on a fetch that was just
// given up. Sends, feeds, repulls and declines run after the lock is dropped.
// Records are never removed: like the directory's names they are bounded by
// the files the server has seen, and a file's next cycle reuses its record.
// Each shard indexes the records that are not idle (open), so a session's
// teardown visits what is in flight, not every file ever seen.
type fileTable struct {
	shards [tableShards]fileShard
}

type fileShard struct {
	mu   sync.Mutex
	m    map[naming.ShadowID]*fileRecord
	open map[naming.ShadowID]*fileRecord
}

// fileRecord is one file's entry; each parked peer request wants a version
// the flight covers, and each owed acknowledgement one the flight or the
// assembly covers.
type fileRecord struct {
	fetching bool
	flight   pendingFetch
	asm      *pendingAssembly
	jobs     []*job
	peers    []peerWant
	acks     []ackWant
	delta    *storedDelta
}

// pendingFetch is one file retrieval in flight: the version asked for, the
// session that asked (owner), and the trace context of the cycle that caused
// it — a re-issued pull stays part of the original causal trace — plus when
// the pull went out (on the observer's clock, for the pull→arrival histogram)
// and its open span (nil untraced), which the completing arrival finishes.
type pendingFetch struct {
	ref   wire.FileRef
	want  uint64
	owner uint64
	tc    wire.TraceContext
	at    time.Duration
	span  *trace.Span
}

// ackWant is a session owed a FILE_ACK for want or newer, which the arrival
// installing the version sends: another assembly of the file superseded or
// overtook the one its manifest started.
type ackWant struct {
	ss   *session
	ref  wire.FileRef
	want uint64
	tc   wire.TraceContext
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
	if r.fetching || r.asm != nil || len(r.peers)+len(r.acks) > 0 {
		sh.open[id] = r
	} else {
		delete(sh.open, id)
	}
}

// sweep visits every open record, shard by shard under the shard's lock;
// visit may change the record.
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

// begin registers the fetch f of id. It reports won when the caller should
// issue the pull; otherwise a fetch of this version or a newer one is already
// in flight, cur, and this one coalesces onto it. force replaces whatever is
// in flight: the previous fetch's answer proved unusable. A replaced fetch
// comes back as cur for the caller to finish its span. open, if set, stamps a
// winning f with when its pull goes out and its span; it runs under the shard
// lock, so it may take leaf locks only (the tracer's).
func (t *fileTable) begin(id naming.ShadowID, f pendingFetch, force bool, open func() (time.Duration, *trace.Span)) (cur pendingFetch, won bool) {
	sh, r := t.lock(id)
	if r.fetching {
		cur = r.flight
	}
	won = force || !r.fetching || r.flight.want < f.want
	if won {
		if open != nil {
			f.at, f.span = open()
		}
		r.fetching, r.flight = true, f
	}
	sh.unlock(id, r)
	return cur, won
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
// owned, to be re-issued elsewhere; the assemblies it sourced, to be dropped;
// and — a peer's — the requests it parked, which nothing can answer now.
// Acknowledgements owed to it go.
func (t *fileTable) dropSession(ss *session) (fetches []pendingFetch, orphans []peerWant, asms []*pendingAssembly) {
	t.sweep(func(r *fileRecord) {
		if r.fetching && r.flight.owner == ss.id {
			fetches = append(fetches, r.flight)
			r.fetching = false
		}
		if r.asm != nil && r.asm.src == ss {
			asms = append(asms, r.asm)
			r.asm = nil
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
		r.acks = slices.DeleteFunc(r.acks, func(a ackWant) bool { return a.ss == ss })
	})
	return fetches, orphans, asms
}

// fetches lists every retrieval in flight and counts, per session id, the
// assemblies whose chunks are asked of the session (introspection).
func (t *fileTable) fetches() (out []pendingFetch, asms map[uint64]int) {
	asms = make(map[uint64]int)
	t.sweep(func(r *fileRecord) {
		if r.fetching {
			out = append(out, r.flight)
		}
		if r.asm != nil {
			asms[r.asm.src.id]++
		}
	})
	return out, asms
}

// addJob indexes j under a file one of its inputs waits for.
func (t *fileTable) addJob(id naming.ShadowID, j *job) {
	sh, r := t.lock(id)
	r.jobs = append(r.jobs, j)
	sh.unlock(id, r)
}

// arrival is what arrive took out of the record, for Server.arrived to act
// on with no lock held: the flight it completed (zero when none), the
// assembly it overtook, the parked peer requests to answer and to decline,
// and the acknowledgements now due.
type arrival struct {
	pull            pendingFetch
	overtaken       *pendingAssembly
	answer, decline []peerWant
	acks            []ackWant
}

// arrive settles what version of id, just stored or found in the cache,
// decides. The flight it completes closes, and an assembly of the version or
// an older one ends, its source owed the acknowledgement. With content, every
// waiting input it satisfies is fed a reference to it and its job appended to
// ready. Parked requests and owed acknowledgements it satisfies come back to
// be answered; requests it falls short of stay parked while a flight covers
// them and come back in decline otherwise, and acknowledgements stay owed
// while the flight or the assembly covers them and are dropped otherwise.
// Version 0 and no content declines exactly the requests no flight covers
// any more — what an abandoned fetch leaves.
func (t *fileTable) arrive(id naming.ShadowID, version uint64, content *fileBuf, ready []*job) ([]*job, arrival) {
	var a arrival
	sh, r := t.lock(id)
	if r.fetching && r.flight.want <= version {
		r.fetching, a.pull = false, r.flight
	}
	if pa := r.asm; pa != nil && pa.version <= version {
		r.asm, a.overtaken = nil, pa
		r.acks = append(r.acks, ackWant{ss: pa.src, ref: pa.ref, want: pa.version, tc: pa.tc})
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
			a.answer = append(a.answer, w)
		case r.fetching && r.flight.want >= w.want:
			kept = append(kept, w)
		default:
			a.decline = append(a.decline, w)
		}
	}
	clear(r.peers[len(kept):])
	r.peers = kept
	owed := r.acks[:0]
	for _, w := range r.acks {
		switch {
		case version >= w.want:
			a.acks = append(a.acks, w)
		case (r.fetching && r.flight.want >= w.want) || (r.asm != nil && r.asm.version >= w.want):
			owed = append(owed, w)
		}
	}
	clear(r.acks[len(owed):])
	r.acks = owed
	sh.unlock(id, r)
	return ready, a
}

// setDelta keeps d, a client's delta to id, for forwarding to peers (nil
// drops it).
func (t *fileTable) setDelta(id naming.ShadowID, d *storedDelta) {
	sh, r := t.lock(id)
	r.delta = d
	sh.unlock(id, r)
}
