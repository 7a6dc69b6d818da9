package cache

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"shadowedit/internal/chunk"
	"shadowedit/internal/diff"
	"shadowedit/internal/workload"
)

// editedVersion applies one editing session (clustered replacements,
// insertions and deletions touching about pct percent of base) and returns
// the new version with the spans a delta between the two reports — exactly
// what the server hands PutFromBase.
func editedVersion(t testing.TB, g *workload.Generator, base []byte, pct float64) ([]byte, []chunk.Span) {
	t.Helper()
	d, err := diff.Compute(diff.HuntMcIlroy, base, g.Modify(base, pct, workload.EditMixed))
	if err != nil {
		t.Fatal(err)
	}
	target, spans, err := d.ApplySpans(base)
	if err != nil || spans == nil {
		t.Fatalf("ApplySpans: spans %v, err %v", spans, err)
	}
	return target, spans
}

// TestPutFromBaseBalancesRefcounts runs a chain of delta puts and checks the
// cache serves every version byte-exact and that evicting the entry returns
// every chunk: a derived manifest holds exactly one reference per ref, as a
// split one does.
func TestPutFromBaseBalancesRefcounts(t *testing.T) {
	for _, capacity := range []int64{0, 1 << 20} {
		g := workload.NewGenerator(7)
		c := New(capacity, LRU)
		cur := g.File(96 << 10)
		if err := c.Put(1, 1, cur); err != nil {
			t.Fatal(err)
		}
		for v := uint64(1); v <= 40; v++ {
			next, spans := editedVersion(t, g, cur, float64(v%4))
			if err := c.PutFromBase(1, v, v+1, next, spans); err != nil {
				t.Fatalf("v%d: PutFromBase: %v", v+1, err)
			}
			e, ok := c.Get(1)
			if !ok || e.Version != v+1 || !bytes.Equal(e.Content, next) {
				t.Fatalf("v%d: cache does not hold the put content", v+1)
			}
			if _, m, _ := c.Manifest(1); !slices.Equal(m, chunk.Split(next, c.Params())) {
				t.Fatalf("v%d: derived manifest differs from a full split", v+1)
			}
			cur = next
		}
		if !c.Evict(1) {
			t.Fatal("entry missing")
		}
		if n, b := c.ChunkStore().Len(), c.Bytes(); n != 0 || b != 0 {
			t.Fatalf("capacity %d: evict left %d chunks, %d bytes behind", capacity, n, b)
		}
	}
}

// TestPutFromBaseCountsLikePut pins the meaning of the chunk counters: a
// delta put reports the same fresh chunks, dedup hits and frees as a full Put
// of the same content over the same base.
func TestPutFromBaseCountsLikePut(t *testing.T) {
	g := workload.NewGenerator(8)
	base := g.File(128 << 10)
	target, spans := editedVersion(t, g, base, 2)
	full, delta := New(0, LRU), New(0, LRU)
	for _, c := range []*Cache{full, delta} {
		if err := c.Put(1, 1, base); err != nil {
			t.Fatal(err)
		}
	}
	primed := delta.Stats()
	if err := full.Put(1, 2, target); err != nil {
		t.Fatal(err)
	}
	if err := delta.PutFromBase(1, 1, 2, target, spans); err != nil {
		t.Fatal(err)
	}
	f, d := full.Stats(), delta.Stats()
	if f.ChunkPuts != d.ChunkPuts || f.ChunkDups != d.ChunkDups || f.ChunkFrees != d.ChunkFrees ||
		f.Chunks != d.Chunks || f.Bytes != d.Bytes || f.LogicalBytes != d.LogicalBytes {
		t.Fatalf("delta put stats %+v differ from full put stats %+v", d, f)
	}
	if fresh := d.ChunkPuts - primed.ChunkPuts; fresh == 0 || fresh >= d.ChunkDups {
		t.Fatalf("a 2-percent edit of 128 KiB should mostly dedup: %d fresh chunks, stats %+v", fresh, d)
	}
}

// TestPutFromBaseFallsBack covers everything that is not "spans over the
// resident base": each case must still store exactly the given bytes.
func TestPutFromBaseFallsBack(t *testing.T) {
	g := workload.NewGenerator(9)
	base := g.File(32 << 10)
	target, spans := editedVersion(t, g, base, 3)
	other := g.File(20 << 10)

	check := func(t *testing.T, c *Cache, version uint64, want []byte) {
		t.Helper()
		e, ok := c.Get(1)
		if !ok || e.Version != version || !bytes.Equal(e.Content, want) {
			t.Fatalf("cache holds v%d (%d bytes), want v%d (%d bytes)", e.Version, len(e.Content), version, len(want))
		}
		c.Evict(1)
		if n := c.ChunkStore().Len(); n != 0 {
			t.Fatalf("evict left %d chunks behind", n)
		}
	}
	t.Run("base replaced", func(t *testing.T) {
		c := New(0, LRU)
		_ = c.Put(1, 1, base)
		_ = c.Put(1, 2, other) // someone else got there first
		if err := c.PutFromBase(1, 1, 3, target, spans); err != nil {
			t.Fatal(err)
		}
		check(t, c, 3, target)
	})
	t.Run("base evicted", func(t *testing.T) {
		c := New(0, LRU)
		if err := c.PutFromBase(1, 1, 2, target, spans); err != nil {
			t.Fatal(err)
		}
		check(t, c, 2, target)
	})
	t.Run("no spans", func(t *testing.T) {
		c := New(0, LRU)
		_ = c.Put(1, 1, base)
		if err := c.PutFromBase(1, 1, 2, target, nil); err != nil {
			t.Fatal(err)
		}
		check(t, c, 2, target)
	})
	t.Run("spans do not fit", func(t *testing.T) {
		c := New(0, LRU)
		_ = c.Put(1, 1, base)
		bad := append([]chunk.Span(nil), spans...)
		bad[0].TargetEnd++
		if err := c.PutFromBase(1, 1, 2, target, bad); err != nil {
			t.Fatal(err)
		}
		check(t, c, 2, target)
	})
	t.Run("too large", func(t *testing.T) {
		c := New(1000, LRU)
		_ = c.Put(1, 1, base[:500])
		big, bigSpans := editedVersion(t, g, base, 1)
		if err := c.PutFromBase(1, 1, 2, big, bigSpans); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err = %v, want ErrTooLarge", err)
		}
		if _, ok := c.Peek(1); ok {
			t.Fatal("stale predecessor survived a rejected put")
		}
	})
}

// TestPutFromBaseDistrustsInstalledManifest: a base that arrived as a
// manifest (PutManifest — a chunked client's or a peer's description, checked
// for hashes and the whole-file sum only) is never derived from, whatever it
// says about boundaries and lengths. The put must terminate, store the right
// bytes under the canonical split, and leave the refcounts balanced.
func TestPutFromBaseDistrustsInstalledManifest(t *testing.T) {
	g := workload.NewGenerator(11)
	base := g.File(64 << 10)
	target, spans := editedVersion(t, g, base, 2)
	canonical := chunk.Split(base, chunk.DefaultParams)
	if len(canonical) < 3 {
		t.Fatalf("base splits into %d chunks; the test needs a few", len(canonical))
	}
	shapes := map[string]func(chunk.Manifest){
		"canonical": func(chunk.Manifest) {},
		// The review's denial of service: an empty first ref the reuse
		// branch would append forever.
		"zero length": func(m chunk.Manifest) {
			m[1].Len += m[0].Len
			m[0].Len = 0
		},
		// Same total, wrong boundaries: reused refs would cover the wrong
		// target ranges and store bytes under hashes they do not match.
		"redistributed lengths": func(m chunk.Manifest) {
			m[0].Len -= 100
			m[1].Len += 100
		},
	}
	for name, lie := range shapes {
		t.Run(name, func(t *testing.T) {
			c := New(0, LRU)
			// What the chunked arrival path does: chunks in the store, one
			// reference per manifest entry handed to the cache.
			m := slices.Clone(canonical)
			c.ChunkStore().PutChunks(m, base)
			lie(m)
			c.PutManifest(1, 1, m)
			if err := c.PutFromBase(1, 1, 2, target, spans); err != nil {
				t.Fatal(err)
			}
			e, ok := c.Get(1)
			if !ok || e.Version != 2 || !bytes.Equal(e.Content, target) {
				t.Fatal("cache does not hold the put content")
			}
			if _, got, _ := c.Manifest(1); !slices.Equal(got, chunk.Split(target, c.Params())) {
				t.Fatal("manifest is not the full split of the content")
			}
			// The full split makes v2 a base PutFromBase may derive from.
			next, nextSpans := editedVersion(t, g, target, 1)
			if err := c.PutFromBase(1, 2, 3, next, nextSpans); err != nil {
				t.Fatal(err)
			}
			if e, ok := c.Get(1); !ok || !bytes.Equal(e.Content, next) {
				t.Fatal("cache does not hold the second put's content")
			}
			c.Evict(1)
			if n, b := c.ChunkStore().Len(), c.Bytes(); n != 0 || b != 0 {
				t.Fatalf("evict left %d chunks, %d bytes behind", n, b)
			}
		})
	}
}

// TestPutFromBaseRacesReplacement replaces and evicts the base while delta
// puts derive from it. Whichever put lands last, the entry must be one of the
// written contents in full and the refcounts must balance.
func TestPutFromBaseRacesReplacement(t *testing.T) {
	g := workload.NewGenerator(10)
	base := g.File(64 << 10)
	target, spans := editedVersion(t, g, base, 2)
	other := g.File(48 << 10)
	c := New(0, LRU)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = c.Put(1, 1, base)
				if err := c.PutFromBase(1, 1, 2, target, spans); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = c.Put(1, 3, other)
				c.Evict(1)
			}
		}()
	}
	wg.Wait()
	if e, ok := c.Peek(1); ok {
		want := map[uint64][]byte{1: base, 2: target, 3: other}[e.Version]
		if !bytes.Equal(e.Content, want) {
			t.Fatalf("entry v%d holds %d bytes that are not what was put", e.Version, len(e.Content))
		}
		c.Evict(1)
	}
	if n, b := c.ChunkStore().Len(), c.Bytes(); n != 0 || b != 0 {
		t.Fatalf("race left %d chunks, %d bytes behind", n, b)
	}
}
