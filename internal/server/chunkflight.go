package server

import (
	"sync"

	"shadowedit/internal/chunk"
	"shadowedit/internal/naming"
)

// chunkFlights coalesces concurrent chunk fetches across files — the
// chunk-granularity sibling of the file table's flights. When several users upload
// near-identical content at once, every file's manifest is missing the
// same chunks; without coalescing the server would ask each client for all
// of them and receive the shared content once per user. Instead, the first
// assembly to miss a chunk claims the fetch and every later assembly
// enrolls as a waiter, named by its file: when the chunk arrives (by any road
// — the claimed ChunkReq answer or another session's inline data), waiters
// resolve against the store without another byte on the wire.
//
// A claim can die with its assembly (abort, supersession, session teardown)
// or come back unanswered; the flight is then failed and its waiters poked,
// and the first waiter still needing the chunk claims a fresh fetch from its
// own assembly's source — which advertised the chunk in its manifest and so
// can supply it. Waiters always re-check the store before waiting again, so a
// stale flight never strands an assembly.
type chunkFlights struct {
	mu sync.Mutex
	// pending maps each hash being fetched to the files whose assemblies
	// wait on the fetch.
	pending map[chunk.Hash][]naming.ShadowID
}

func newChunkFlights() *chunkFlights {
	return &chunkFlights{pending: make(map[chunk.Hash][]naming.ShadowID)}
}

// claim makes id's assembly the fetcher for h when no fetch is in flight,
// reporting true; otherwise the assembly is enrolled as a waiter and claim
// reports false. Called under id's files shard lock (chunkFl.mu is a leaf).
func (f *chunkFlights) claim(h chunk.Hash, id naming.ShadowID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ws, ok := f.pending[h]; ok {
		f.pending[h] = append(ws, id)
		return false
	}
	f.pending[h] = nil
	return true
}

// pop retires the flight for h — the chunk is now in the store, or its fetch
// died — and returns the waiters, who re-resolve once no files shard lock is
// held: against the store first, then by claiming a fresh fetch. The chunk
// may have arrived from a session other than the claimed fetcher (inline data
// races the fetch); popping on first arrival is correct either way — the
// superseded answer admits as a duplicate Put.
func (f *chunkFlights) pop(h chunk.Hash) []naming.ShadowID {
	f.mu.Lock()
	ws := f.pending[h]
	delete(f.pending, h)
	f.mu.Unlock()
	return ws
}
