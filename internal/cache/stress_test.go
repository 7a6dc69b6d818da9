package cache

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"shadowedit/internal/naming"
	"shadowedit/internal/wire"
)

// TestStressShardedOps hammers a bounded cache from many goroutines with the
// full operation mix — Put, PutOwned, Get, Peek, forced Evict and the
// occasional Flush — across enough distinct IDs to populate every shard.
// Run with -race this is the striping soundness check; afterwards the atomic
// byte accounting must agree with a from-scratch recount and the capacity
// bound must hold.
func TestStressShardedOps(t *testing.T) {
	const (
		workers  = 16
		opsEach  = 4000
		ids      = 64
		capacity = 64 << 10
	)
	for _, policy := range []Policy{LRU, LargestFirst} {
		c := New(capacity, policy)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g) * 7919))
				for i := 0; i < opsEach; i++ {
					id := naming.ShadowID(rng.Intn(ids) + 1)
					switch rng.Intn(12) {
					case 0, 1, 2:
						c.Get(id)
					case 3:
						c.Peek(id)
					case 4:
						c.Evict(id)
					case 5:
						if g == 0 && i%1000 == 999 {
							c.Flush()
						}
					case 6:
						err := c.PutOwned(id, uint64(i), content(rng.Intn(2048), byte(id)))
						if err != nil && !errors.Is(err, ErrTooLarge) {
							t.Errorf("PutOwned: %v", err)
							return
						}
					default:
						err := c.Put(id, uint64(i), content(rng.Intn(2048), byte(id)))
						if err != nil && !errors.Is(err, ErrTooLarge) {
							t.Errorf("Put: %v", err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()

		// Eviction is best-effort, so here we only require unique <= logical
		// and an exact logical recount.
		if c.Bytes() > c.LogicalBytes() {
			t.Fatalf("%v: unique %d exceeds logical %d", policy, c.Bytes(), c.LogicalBytes())
		}
		var recount int64
		for id := naming.ShadowID(1); id <= ids; id++ {
			if e, ok := c.Peek(id); ok {
				recount += int64(len(e.Content))
			}
		}
		if recount != c.LogicalBytes() {
			t.Fatalf("%v: byte accounting drifted: recount=%d, LogicalBytes=%d", policy, recount, c.LogicalBytes())
		}
		st := c.Stats()
		if st.Bytes != c.Bytes() || st.Entries != c.Len() {
			t.Fatalf("%v: stats disagree with cache: %+v", policy, st)
		}
		// Draining the cache must return every chunk to the store.
		c.Flush()
		if c.Bytes() != 0 || c.LogicalBytes() != 0 {
			t.Fatalf("%v: flush left bytes behind: unique=%d logical=%d", policy, c.Bytes(), c.LogicalBytes())
		}
	}
}

// TestStressUnboundedOps is the same mix against an unbounded cache, which
// takes the pure shard-local fast path (no eviction mutex at all).
func TestStressUnboundedOps(t *testing.T) {
	const workers, opsEach, ids = 16, 3000, 64
	c := New(0, LRU)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 104729))
			for i := 0; i < opsEach; i++ {
				id := naming.ShadowID(rng.Intn(ids) + 1)
				switch rng.Intn(5) {
				case 0:
					c.Get(id)
				case 1:
					c.Peek(id)
				case 2:
					c.Evict(id)
				default:
					_ = c.Put(id, uint64(i), content(rng.Intn(1024), byte(id)))
				}
			}
		}(g)
	}
	wg.Wait()
	var recount int64
	for id := naming.ShadowID(1); id <= ids; id++ {
		if e, ok := c.Peek(id); ok {
			recount += int64(len(e.Content))
		}
	}
	if recount != c.LogicalBytes() {
		t.Fatalf("byte accounting drifted: recount=%d, LogicalBytes=%d", recount, c.LogicalBytes())
	}
	if c.Bytes() > c.LogicalBytes() {
		t.Fatalf("unique %d exceeds logical %d", c.Bytes(), c.LogicalBytes())
	}
}

func flightRef(i int) wire.FileRef {
	return wire.FileRef{Domain: "d", FileID: string(rune('a' + i%26))}
}

func TestFlightsBeginCoalesces(t *testing.T) {
	f := NewFlights()
	ref := flightRef(0)
	if !f.Begin(1, ref, 3, 10, wire.TraceContext{}) {
		t.Fatal("first Begin should win")
	}
	if f.Begin(1, ref, 3, 11, wire.TraceContext{}) {
		t.Fatal("same-version Begin should coalesce")
	}
	if f.Begin(1, ref, 2, 11, wire.TraceContext{}) {
		t.Fatal("older-version Begin should coalesce behind a newer fetch")
	}
	if !f.Begin(1, ref, 5, 11, wire.TraceContext{}) {
		t.Fatal("newer-version Begin should supersede the in-flight fetch")
	}
	// An arrival older than the in-flight want leaves the flight open.
	f.Done(1, 4)
	if f.Len() != 1 {
		t.Fatalf("Len after stale Done = %d, want 1", f.Len())
	}
	f.Done(1, 5)
	if f.Len() != 0 {
		t.Fatalf("Len after Done = %d, want 0", f.Len())
	}
	if !f.Begin(1, ref, 3, 12, wire.TraceContext{}) {
		t.Fatal("Begin after Done should win again")
	}
}

func TestFlightsForceReplaces(t *testing.T) {
	f := NewFlights()
	ref := flightRef(1)
	if !f.Begin(2, ref, 9, 1, wire.TraceContext{}) {
		t.Fatal("Begin should win")
	}
	// Force re-homes the fetch at a lower version (the full-repull path).
	f.Force(2, ref, 1, 2, wire.TraceContext{})
	f.Done(2, 1)
	if f.Len() != 0 {
		t.Fatalf("Len = %d, want 0: Force should have replaced want", f.Len())
	}
}

// TestFlightsConcurrentSingleWinner races many sessions into Begin for the
// same file version: exactly one may be told to issue the pull.
func TestFlightsConcurrentSingleWinner(t *testing.T) {
	f := NewFlights()
	for round := 0; round < 64; round++ {
		id := naming.ShadowID(round + 1)
		var winners atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if f.Begin(id, flightRef(round), 1, uint64(g), wire.TraceContext{}) {
					winners.Add(1)
				}
			}(g)
		}
		wg.Wait()
		if winners.Load() != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", round, winners.Load())
		}
	}
}

func TestFlightsReleaseOwner(t *testing.T) {
	f := NewFlights()
	for i := 0; i < 10; i++ {
		owner := uint64(1 + i%2)
		if !f.Begin(naming.ShadowID(i+1), flightRef(i), uint64(i+1), owner, wire.TraceContext{}) {
			t.Fatalf("Begin %d should win", i)
		}
	}
	released := f.ReleaseOwner(1)
	if len(released) != 5 {
		t.Fatalf("ReleaseOwner(1) returned %d fetches, want 5", len(released))
	}
	for _, p := range released {
		if p.Want == 0 || p.Ref.FileID == "" {
			t.Fatalf("released fetch incomplete: %+v", p)
		}
	}
	if f.Len() != 5 {
		t.Fatalf("Len after release = %d, want 5", f.Len())
	}
	if again := f.ReleaseOwner(1); len(again) != 0 {
		t.Fatalf("second ReleaseOwner(1) returned %d fetches, want 0", len(again))
	}
}
