package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"shadowedit/internal/naming"
)

func content(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestPutGet(t *testing.T) {
	c := New(1000, LRU)
	if err := c.Put(1, 3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	e, ok := c.Get(1)
	if !ok {
		t.Fatal("Get missed a stored entry")
	}
	if e.Version != 3 || string(e.Content) != "hello" {
		t.Fatalf("entry = %+v", e)
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("Get hit an absent entry")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutReplacesVersion(t *testing.T) {
	c := New(1000, LRU)
	if err := c.Put(1, 1, content(100, 'a')); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, 2, content(50, 'b')); err != nil {
		t.Fatal(err)
	}
	e, _ := c.Get(1)
	if e.Version != 2 || len(e.Content) != 50 {
		t.Fatalf("entry = v%d len%d, want v2 len50", e.Version, len(e.Content))
	}
	if c.Bytes() != 50 {
		t.Fatalf("Bytes = %d, want 50", c.Bytes())
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestPutCopiesContent(t *testing.T) {
	c := New(0, LRU)
	buf := []byte("abc")
	if err := c.Put(1, 1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	e, _ := c.Get(1)
	if string(e.Content) != "abc" {
		t.Fatal("Put aliased caller's buffer")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(300, LRU)
	for id := naming.ShadowID(1); id <= 3; id++ {
		if err := c.Put(id, 1, content(100, byte(id))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 becomes LRU.
	c.Get(1)
	if err := c.Put(4, 1, content(100, 4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("LRU entry 2 not evicted")
	}
	for _, id := range []naming.ShadowID{1, 3, 4} {
		if _, ok := c.Peek(id); !ok {
			t.Fatalf("entry %d wrongly evicted", id)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestLargestFirstEviction(t *testing.T) {
	c := New(350, LargestFirst)
	sizes := map[naming.ShadowID]int{1: 200, 2: 50, 3: 100}
	for id, n := range sizes {
		if err := c.Put(id, 1, content(n, byte(id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Put(4, 1, content(80, 4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek(1); ok {
		t.Fatal("largest entry 1 not evicted first")
	}
	for _, id := range []naming.ShadowID{2, 3, 4} {
		if _, ok := c.Peek(id); !ok {
			t.Fatalf("entry %d wrongly evicted", id)
		}
	}
}

func TestContentLargerThanCapacityRejected(t *testing.T) {
	c := New(100, LRU)
	if err := c.Put(1, 1, content(101, 'x')); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Put = %v, want ErrTooLarge", err)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("cache not empty after rejection: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", c.Stats().Rejected)
	}
}

func TestOversizeReplacementDropsOldVersion(t *testing.T) {
	// If the new version no longer fits, keeping the stale old version
	// would risk serving outdated content; it must go.
	c := New(100, LRU)
	if err := c.Put(1, 1, content(50, 'a')); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, 2, content(200, 'b')); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Put = %v, want ErrTooLarge", err)
	}
	if _, ok := c.Peek(1); ok {
		t.Fatal("stale version survived oversize replacement")
	}
}

func TestUnboundedCache(t *testing.T) {
	c := New(0, LRU)
	for id := naming.ShadowID(1); id <= 100; id++ {
		if err := c.Put(id, 1, content(1000, byte(id))); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d, want 100", c.Len())
	}
	if c.Stats().Evictions != 0 {
		t.Fatal("unbounded cache evicted")
	}
}

func TestEvictAndFlush(t *testing.T) {
	c := New(0, LRU)
	if err := c.Put(1, 1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if !c.Evict(1) {
		t.Fatal("Evict existing returned false")
	}
	if c.Evict(1) {
		t.Fatal("Evict absent returned true")
	}
	if err := c.Put(2, 1, []byte("def")); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("Flush left entries behind")
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || LargestFirst.String() != "largest-first" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() != "policy(9)" {
		t.Fatal("unknown policy name wrong")
	}
}

func TestUnknownPolicyDefaultsToLRU(t *testing.T) {
	c := New(10, Policy(42))
	if c.policy != LRU {
		t.Fatal("unknown policy did not default to LRU")
	}
}

func TestPropertyBytesAccountingUnderRandomOps(t *testing.T) {
	// Invariants under a random op stream: LogicalBytes() equals the sum
	// of stored content lengths, unique bytes never exceed logical bytes,
	// and the capacity bound holds after every Put.
	rng := rand.New(rand.NewSource(99))
	const capacity = 5000
	for _, policy := range []Policy{LRU, LargestFirst} {
		c := New(capacity, policy)
		for op := 0; op < 3000; op++ {
			id := naming.ShadowID(rng.Intn(20) + 1)
			switch rng.Intn(10) {
			case 0, 1:
				c.Peek(id)
			case 2:
				c.Get(id)
			case 3:
				c.Evict(id)
			default:
				size := rng.Intn(1500)
				err := c.Put(id, uint64(op), content(size, byte(id)))
				if err != nil && !errors.Is(err, ErrTooLarge) {
					t.Fatalf("Put: %v", err)
				}
				// Eviction only runs during bounded Puts; the bound must
				// hold afterwards.
				if c.Bytes() > capacity {
					t.Fatalf("op %d: bytes %d exceeds capacity", op, c.Bytes())
				}
			}
			if c.Bytes() > c.LogicalBytes() {
				t.Fatalf("op %d: unique %d exceeds logical %d", op, c.Bytes(), c.LogicalBytes())
			}
		}
		// Recompute the logical byte total from scratch.
		var total int64
		for id := naming.ShadowID(1); id <= 20; id++ {
			if e, ok := c.Peek(id); ok {
				total += int64(len(e.Content))
			}
		}
		if total != c.LogicalBytes() {
			t.Fatalf("%v: bytes accounting drifted: recount=%d, LogicalBytes=%d", policy, total, c.LogicalBytes())
		}
		// Draining the cache must return every chunk to the store.
		c.Flush()
		if c.Bytes() != 0 || c.LogicalBytes() != 0 {
			t.Fatalf("%v: flush left bytes behind: unique=%d logical=%d", policy, c.Bytes(), c.LogicalBytes())
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(10000, LRU)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				id := naming.ShadowID(rng.Intn(10) + 1)
				switch rng.Intn(4) {
				case 0:
					_ = c.Put(id, uint64(i), content(rng.Intn(300), byte(g)))
				case 1:
					c.Get(id)
				case 2:
					c.Peek(id)
				case 3:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() < 0 || c.Bytes() > c.LogicalBytes() {
		t.Fatalf("bytes out of range after concurrency: unique=%d logical=%d", c.Bytes(), c.LogicalBytes())
	}
	c.Flush()
	if c.Bytes() != 0 || c.LogicalBytes() != 0 {
		t.Fatalf("flush left bytes behind: unique=%d logical=%d", c.Bytes(), c.LogicalBytes())
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	c := New(0, LRU)
	if err := c.Put(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	st.Hits = 999
	if c.Stats().Hits == 999 {
		t.Fatal("Stats returned a live reference")
	}
}

func ExampleCache() {
	c := New(1<<20, LRU)
	_ = c.Put(1, 1, []byte("version one\n"))
	if e, ok := c.Get(1); ok {
		fmt.Printf("v%d: %s", e.Version, e.Content)
	}
	// Output: v1: version one
}

func TestOversizedPutDoesNotEvictOthers(t *testing.T) {
	// Content that can never fit must be rejected before sacrificing
	// anyone else's entries.
	c := New(100, LRU)
	for id := naming.ShadowID(1); id <= 4; id++ {
		if err := c.Put(id, 1, content(25, byte(id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Put(9, 1, content(500, 9)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Put = %v, want ErrTooLarge", err)
	}
	if c.Len() != 4 {
		t.Fatalf("oversized Put evicted residents: %d left, want 4", c.Len())
	}
	if c.Stats().Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", c.Stats().Evictions)
	}
}

func TestEvictHookObservesEveryRemoval(t *testing.T) {
	c := New(250, LRU)
	var gone []naming.ShadowID
	c.SetEvictHook(func(id naming.ShadowID) { gone = append(gone, id) })

	// Installs are not removals.
	if err := c.Put(1, 1, content(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(2, 1, content(100, 2)); err != nil {
		t.Fatal(err)
	}
	if len(gone) != 0 {
		t.Fatalf("hook fired on install: %v", gone)
	}
	// Replacement by a newer version is not a removal either.
	if err := c.Put(2, 2, content(100, 3)); err != nil {
		t.Fatal(err)
	}
	if len(gone) != 0 {
		t.Fatalf("hook fired on replacement: %v", gone)
	}

	// Capacity pressure evicts the LRU entry (1).
	if err := c.Put(3, 1, content(100, 4)); err != nil {
		t.Fatal(err)
	}
	// An oversized replacement drops its stale predecessor (3).
	if err := c.Put(3, 2, content(500, 5)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Put = %v, want ErrTooLarge", err)
	}
	// Explicit removal (2), then Flush for whatever remains.
	if !c.Evict(2) {
		t.Fatal("Evict(2) reported the entry missing")
	}
	if err := c.Put(4, 1, content(50, 6)); err != nil {
		t.Fatal(err)
	}
	c.Flush()

	want := []naming.ShadowID{1, 3, 2, 4}
	if len(gone) != len(want) {
		t.Fatalf("hook saw %v, want %v", gone, want)
	}
	for i, id := range want {
		if gone[i] != id {
			t.Fatalf("hook saw %v, want %v", gone, want)
		}
	}
}

// TestLookupAccounting pins which lookups Stats counts. Get, GetInto and
// GetAtLeast are consumers asking for a file: an entry that is there is a hit
// — also when it is older than the reader can use, because it is still the
// base the next delta builds on — and an absent one a miss. Version, Peek,
// Manifest and Fingerprint plan or inspect and count nothing.
func TestLookupAccounting(t *testing.T) {
	c := New(0, LRU)
	if err := c.Put(1, 5, []byte("five\n")); err != nil {
		t.Fatal(err)
	}
	c.Version(1)
	c.Version(2)
	c.Peek(1)
	c.Peek(2)
	c.Manifest(1)
	c.Fingerprint(2)
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("planning lookups counted: %+v", st)
	}
	buf := make([]byte, 0, 64)
	if e, ok := c.GetAtLeast(buf, 1, 5); !ok || e.Version != 5 || string(e.Content) != "five\n" || &e.Content[0] != &buf[:1][0] {
		t.Fatalf("GetAtLeast(min = cached) = %+v, %v; want the content, in the caller's buffer", e, ok)
	}
	if e, ok := c.GetAtLeast(buf, 1, 6); !ok || e.Version != 5 || e.Content != nil {
		t.Fatalf("GetAtLeast(min > cached) = %+v, %v; want the version and nothing assembled", e, ok)
	}
	if _, ok := c.GetAtLeast(nil, 2, 0); ok {
		t.Fatal("GetAtLeast found an absent entry")
	}
	c.Get(1)
	c.GetInto(nil, 2)
	if st := c.Stats(); st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("hits %d, misses %d; want 3 and 2", st.Hits, st.Misses)
	}
}
