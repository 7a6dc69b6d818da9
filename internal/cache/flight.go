package cache

import (
	"sync"

	"shadowedit/internal/naming"
	"shadowedit/internal/wire"
)

// Flights coalesces concurrent retrievals of the same shadow file across
// sessions: when several clients notify (or several jobs need) the same
// file version, only the first pull goes out on the wire — the arrival
// feeds every waiter, because the cache and the job waiting-index are
// global. The paper's demand-driven design (§5.2) makes this safe: a pull
// is a server-side optimization, never a protocol obligation, so answering
// one pull satisfies everyone who wanted the content.
//
// Each flight remembers which session issued the pull (the owner). When a
// session dies, ReleaseOwner returns its in-flight fetches so the server
// can re-issue them through a surviving session — otherwise jobs waiting on
// a coalesced pull would hang on a dead connection.
type Flights struct {
	shards [shardCount]flightShard
}

type flightShard struct {
	mu sync.Mutex
	m  map[naming.ShadowID]flight
}

type flight struct {
	ref   wire.FileRef
	want  uint64
	owner uint64
	tc    wire.TraceContext
}

// PendingFetch is one released in-flight retrieval: the file, the version
// that was being fetched when its owning session died, and the trace
// context of the cycle that initiated the fetch — a re-issued pull stays
// part of the original causal trace. List also names the owning session.
type PendingFetch struct {
	Ref   wire.FileRef
	Want  uint64
	TC    wire.TraceContext
	Owner uint64
}

// NewFlights returns an empty flight table.
func NewFlights() *Flights {
	f := &Flights{}
	for i := range f.shards {
		f.shards[i].m = make(map[naming.ShadowID]flight)
	}
	return f
}

func (f *Flights) shardOf(id naming.ShadowID) *flightShard {
	h := uint64(id)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &f.shards[h&(shardCount-1)]
}

// Begin registers intent to fetch version want of id from session owner,
// attributing the fetch to trace context tc (zero when untraced). It
// reports true when the caller should issue the pull; false when a fetch
// covering this version is already in flight and the pull coalesces.
func (f *Flights) Begin(id naming.ShadowID, ref wire.FileRef, want, owner uint64, tc wire.TraceContext) bool {
	sh := f.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fl, ok := sh.m[id]; ok && fl.want >= want {
		return false
	}
	sh.m[id] = flight{ref: ref, want: want, owner: owner, tc: tc}
	return true
}

// Force unconditionally records a fetch, replacing any in-flight entry —
// the forced-full-pull path, where the previous flight's answer proved
// unusable.
func (f *Flights) Force(id naming.ShadowID, ref wire.FileRef, want, owner uint64, tc wire.TraceContext) {
	sh := f.shardOf(id)
	sh.mu.Lock()
	sh.m[id] = flight{ref: ref, want: want, owner: owner, tc: tc}
	sh.mu.Unlock()
}

// Done clears the flight for id once a version at least as new as the one
// being fetched has arrived. An older arrival leaves the flight open.
func (f *Flights) Done(id naming.ShadowID, version uint64) {
	sh := f.shardOf(id)
	sh.mu.Lock()
	if fl, ok := sh.m[id]; ok && fl.want <= version {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
}

// Release removes the flight for id if the given session still owns it —
// the undo path when a re-homed pull fails on a session that died between
// being chosen and the send, after its own ReleaseOwner pass already ran.
func (f *Flights) Release(id naming.ShadowID, owner uint64) {
	sh := f.shardOf(id)
	sh.mu.Lock()
	if fl, ok := sh.m[id]; ok && fl.owner == owner {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
}

// ReleaseOwner removes every flight owned by a (dead) session and returns
// the fetches that were outstanding so they can be re-issued elsewhere.
func (f *Flights) ReleaseOwner(owner uint64) []PendingFetch {
	return f.collect(func(fl flight) bool { return fl.owner == owner }, true)
}

// List returns every in-flight fetch (introspection).
func (f *Flights) List() []PendingFetch {
	return f.collect(func(flight) bool { return true }, false)
}

func (f *Flights) collect(match func(flight) bool, remove bool) []PendingFetch {
	var out []PendingFetch
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for id, fl := range sh.m {
			if match(fl) {
				out = append(out, PendingFetch{Ref: fl.ref, Want: fl.want, TC: fl.tc, Owner: fl.owner})
				if remove {
					delete(sh.m, id)
				}
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Pending reports the version an in-flight fetch of id is waiting for, and
// whether one exists. Cluster peer serving uses it: an owner that is already
// pulling a version at least as new as a peer wants can park the peer's
// request on the arrival instead of declining it.
func (f *Flights) Pending(id naming.ShadowID) (uint64, bool) {
	sh := f.shardOf(id)
	sh.mu.Lock()
	fl, ok := sh.m[id]
	sh.mu.Unlock()
	return fl.want, ok
}

// Len reports the number of in-flight fetches (tests and introspection).
func (f *Flights) Len() int {
	n := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
