package server

import (
	"sync"

	"shadowedit/internal/chunk"
	"shadowedit/internal/naming"
)

// chunkFlights coalesces concurrent chunk fetches across sessions — the
// chunk-granularity sibling of the file table's flights. When several users upload
// near-identical content at once, every session's manifest is missing the
// same chunks; without coalescing the server would ask each client for all
// of them and receive the shared content once per user. Instead, the first
// assembly to miss a chunk claims the fetch and every later assembly
// enrolls as a waiter: when the chunk arrives (by any road — the claimed
// ChunkReq answer or another session's inline data), waiters resolve against
// the store without another byte on the wire.
//
// A claim can die with its assembly (abort, supersession, session teardown)
// or come back unanswered; the flight is then failed and its waiters poked,
// and the first waiter still needing the chunk claims a fresh fetch from its
// own client — which advertised the chunk in its manifest and so can supply
// it. Waiters always re-check the store before waiting again, so a stale
// flight never strands an assembly.
type chunkFlights struct {
	mu      sync.Mutex
	pending map[chunk.Hash]*chunkFlight
}

type chunkFlight struct {
	owner   *session
	waiters []chunkWaiter
}

// chunkWaiter names one assembly awaiting a chunk: the session and the file
// whose pendingAssembly lists the hash as missing.
type chunkWaiter struct {
	ss *session
	id naming.ShadowID
}

func newChunkFlights() *chunkFlights {
	return &chunkFlights{pending: make(map[chunk.Hash]*chunkFlight)}
}

// claim makes (ss, id) the fetcher for h when no fetch is in flight,
// reporting true; otherwise the assembly is enrolled as a waiter and claim
// reports false. May be called with ss.mu held (flights.mu is interior to
// every session mutex).
func (f *chunkFlights) claim(h chunk.Hash, ss *session, id naming.ShadowID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fl, ok := f.pending[h]; ok {
		fl.waiters = append(fl.waiters, chunkWaiter{ss: ss, id: id})
		return false
	}
	f.pending[h] = &chunkFlight{owner: ss}
	return true
}

// arrived retires the flight for h (the chunk is now in the store) and
// returns the waiters to poke. Callers must notify with no session mutex
// held. The chunk may have arrived from a session other than the claimed
// owner (inline data races the fetch); popping on first arrival is correct
// either way — the superseded answer admits as a duplicate Put.
func (f *chunkFlights) arrived(h chunk.Hash) []chunkWaiter {
	return f.pop(h)
}

// fail retires the flight for h without the chunk and returns the waiters,
// who re-resolve: against the store first, then by claiming a fresh fetch.
func (f *chunkFlights) fail(h chunk.Hash) []chunkWaiter {
	return f.pop(h)
}

func (f *chunkFlights) pop(h chunk.Hash) []chunkWaiter {
	f.mu.Lock()
	fl := f.pending[h]
	if fl != nil {
		delete(f.pending, h)
	}
	f.mu.Unlock()
	if fl == nil {
		return nil
	}
	return fl.waiters
}
