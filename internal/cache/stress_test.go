package cache

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"shadowedit/internal/naming"
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
