package cache

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"shadowedit/internal/chunk"
	"shadowedit/internal/diff"
	"shadowedit/internal/race"
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
			if err := c.PutFromBase(1, v, v+1, next, diff.Checksum(next), spans); err != nil {
				t.Fatalf("v%d: PutFromBase: %v", v+1, err)
			}
			e, ok := c.Get(1)
			if !ok || e.Version != v+1 || !bytes.Equal(e.Content, next) {
				t.Fatalf("v%d: cache does not hold the put content", v+1)
			}
			if _, m, _, _ := c.Manifest(1); !slices.Equal(m, chunk.Split(next, c.Params())) {
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
	if err := delta.PutFromBase(1, 1, 2, target, diff.Checksum(target), spans); err != nil {
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
		if err := c.PutFromBase(1, 1, 3, target, diff.Checksum(target), spans); err != nil {
			t.Fatal(err)
		}
		check(t, c, 3, target)
	})
	t.Run("base evicted", func(t *testing.T) {
		c := New(0, LRU)
		if err := c.PutFromBase(1, 1, 2, target, diff.Checksum(target), spans); err != nil {
			t.Fatal(err)
		}
		check(t, c, 2, target)
	})
	t.Run("no spans", func(t *testing.T) {
		c := New(0, LRU)
		_ = c.Put(1, 1, base)
		if err := c.PutFromBase(1, 1, 2, target, diff.Checksum(target), nil); err != nil {
			t.Fatal(err)
		}
		check(t, c, 2, target)
	})
	t.Run("spans do not fit", func(t *testing.T) {
		c := New(0, LRU)
		_ = c.Put(1, 1, base)
		bad := append([]chunk.Span(nil), spans...)
		bad[0].TargetEnd++
		if err := c.PutFromBase(1, 1, 2, target, diff.Checksum(target), bad); err != nil {
			t.Fatal(err)
		}
		check(t, c, 2, target)
	})
	t.Run("too large", func(t *testing.T) {
		c := New(1000, LRU)
		_ = c.Put(1, 1, base[:500])
		big, bigSpans := editedVersion(t, g, base, 1)
		if err := c.PutFromBase(1, 1, 2, big, diff.Checksum(big), bigSpans); !errors.Is(err, ErrTooLarge) {
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
			if err := c.PutFromBase(1, 1, 2, target, diff.Checksum(target), spans); err != nil {
				t.Fatal(err)
			}
			e, ok := c.Get(1)
			if !ok || e.Version != 2 || !bytes.Equal(e.Content, target) {
				t.Fatal("cache does not hold the put content")
			}
			if _, got, _, _ := c.Manifest(1); !slices.Equal(got, chunk.Split(target, c.Params())) {
				t.Fatal("manifest is not the full split of the content")
			}
			// The full split makes v2 a base PutFromBase may derive from.
			next, nextSpans := editedVersion(t, g, target, 1)
			if err := c.PutFromBase(1, 2, 3, next, diff.Checksum(next), nextSpans); err != nil {
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

// TestPutFromBaseHandOverCountsLikePut replaces or evicts the base between
// PutFromBase's derivation and its install, the window the reference
// hand-over must notice. Whatever happened there, the entry holds the put
// content under the full split, no chunk is lost, and the store reads — its
// puts, dups, frees, chunks and bytes — exactly as in a cache that did the
// same with a full Put; evicting everything then empties it.
func TestPutFromBaseHandOverCountsLikePut(t *testing.T) {
	g := workload.NewGenerator(12)
	base := g.File(64 << 10)
	target, spans := editedVersion(t, g, base, 2)
	other := g.File(48 << 10)
	// reshaped has base's chunk count, one chunk's bytes differing: a
	// flipped first byte of a chunk is outside every boundary decision.
	reshaped := bytes.Clone(base)
	reshaped[chunk.Split(base, chunk.DefaultParams)[0].Len] ^= 0xFF
	if len(chunk.Split(reshaped, chunk.DefaultParams)) != len(chunk.Split(base, chunk.DefaultParams)) {
		t.Fatal("the reshaped base splits into another number of chunks")
	}
	between := map[string]func(c *Cache){
		"replaced, same chunk count": func(c *Cache) { _ = c.Put(1, 2, reshaped) },
		"nothing":                    func(*Cache) {},
		"replaced":                   func(c *Cache) { _ = c.Put(1, 2, other) },
		"replaced by the same bytes": func(c *Cache) { _ = c.Put(1, 1, base) },
		"evicted":                    func(c *Cache) { c.Evict(1) },
		"evicted, target elsewhere":  func(c *Cache) { c.Evict(1); _ = c.Put(2, 1, target) },
		"base shared elsewhere":      func(c *Cache) { _ = c.Put(2, 1, base) },
		"flushed":                    func(c *Cache) { c.Flush() },
	}
	for name, meanwhile := range between {
		for _, capacity := range []int64{0, 1 << 20} {
			delta, full := New(capacity, LRU), New(capacity, LRU)
			for _, c := range []*Cache{delta, full} {
				if err := c.Put(1, 1, base); err != nil {
					t.Fatal(err)
				}
			}
			d, ok := delta.derive(1, 1, target, spans)
			if !ok {
				t.Fatalf("%s: no derivation from the resident base", name)
			}
			meanwhile(delta)
			meanwhile(full)
			delta.install(1, slot{version: 3, manifest: d.m, size: int64(len(target)), split: true, sum: diff.Checksum(target)}, &d)
			if err := full.Put(1, 3, target); err != nil {
				t.Fatal(err)
			}
			ds, fs := delta.Stats(), full.Stats()
			if ds.ChunkPuts != fs.ChunkPuts || ds.ChunkDups != fs.ChunkDups || ds.ChunkFrees != fs.ChunkFrees ||
				ds.Chunks != fs.Chunks || ds.Bytes != fs.Bytes || ds.LogicalBytes != fs.LogicalBytes {
				t.Fatalf("%s, capacity %d: hand-over stats %+v, full put %+v", name, capacity, ds, fs)
			}
			if e, ok := delta.Get(1); !ok || e.Version != 3 || !bytes.Equal(e.Content, target) {
				t.Fatalf("%s: cache does not hold the put content", name)
			}
			if _, m, _, _ := delta.Manifest(1); !slices.Equal(m, chunk.Split(target, delta.Params())) {
				t.Fatalf("%s: manifest is not the full split", name)
			}
			delta.Flush()
			if n, b := delta.ChunkStore().Len(), delta.Bytes(); n != 0 || b != 0 {
				t.Fatalf("%s, capacity %d: flush left %d chunks, %d bytes behind", name, capacity, n, b)
			}
		}
	}
}

// TestPutFromBaseEmptyBaseReplacedByDescribedManifest: every empty manifest
// looks like every other, so an empty base replaced by a described empty
// file (PutManifest) between derivation and install must not pass for the
// base the derivation read.
func TestPutFromBaseEmptyBaseReplacedByDescribedManifest(t *testing.T) {
	target, spans := []byte("one line\n"), []chunk.Span{{TargetEnd: 9}}
	c := New(0, LRU)
	if err := c.Put(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	d, ok := c.derive(1, 1, target, spans)
	if !ok {
		t.Fatal("no derivation from the empty base")
	}
	c.PutManifest(1, 2, nil)
	c.install(1, slot{version: 3, manifest: d.m, size: int64(len(target)), split: true, sum: diff.Checksum(target)}, &d)
	if e, ok := c.Get(1); !ok || e.Version != 3 || !bytes.Equal(e.Content, target) {
		t.Fatalf("cache holds %+v", e)
	}
	c.Flush()
	if n := c.ChunkStore().Len(); n != 0 {
		t.Fatalf("flush left %d chunks behind", n)
	}
}

// TestPutFromBaseRacesReplacement replaces and evicts the base while delta
// puts derive from it and readers view it in place, with a second entry
// sharing its chunks. Whichever put lands last, the entry must be one of the
// written contents in full, no view may see a chunk go missing, the store's
// counts must agree with what it holds, and evicting everything must empty
// it.
func TestPutFromBaseRacesReplacement(t *testing.T) {
	g := workload.NewGenerator(10)
	base := g.File(64 << 10)
	target, spans := editedVersion(t, g, base, 2)
	other := g.File(48 << 10)
	want := map[uint64][]byte{1: base, 2: target, 3: other}
	c := New(0, LRU)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = c.Put(1, 1, base)
				if err := c.PutFromBase(1, 1, 2, target, diff.Checksum(target), spans); err != nil {
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
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = c.Put(2, uint64(i+1), want[uint64(1+i%3)])
			}
		}()
		go func() {
			defer wg.Done()
			var segs [][]byte
			for i := 0; i < 600; i++ {
				v := uint64(1 + i%3)
				segs, _ = c.View(segs, 1, v, func(content [][]byte, _ uint32) {
					if !bytes.Equal(bytes.Join(content, nil), want[v]) {
						t.Errorf("view of v%d read other bytes", v)
					}
				})
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.ChunkPuts-st.ChunkFrees != int64(st.Chunks) {
		t.Fatalf("counts disagree with the store: %+v", st)
	}
	if e, ok := c.Peek(1); ok && !bytes.Equal(e.Content, want[e.Version]) {
		t.Fatalf("entry v%d holds %d bytes that are not what was put", e.Version, len(e.Content))
	}
	c.Flush()
	if n, b := c.ChunkStore().Len(), c.Bytes(); n != 0 || b != 0 {
		t.Fatalf("race left %d chunks, %d bytes behind", n, b)
	}
}

// TestViewHandsTheEntrysSum: View and Manifest hand the CRC-32C the delta
// and peer paths check a base by — the sum an arrival was verified against,
// recorded at install (PutFromBase, PutVerifiedManifest), or the content's
// own, computed at install (Put, PutManifest). A recorded sum is handed back
// without reading the chunks again; race builds read them anyway and refuse
// a sum that does not match.
func TestViewHandsTheEntrysSum(t *testing.T) {
	base := bytes.Repeat([]byte("a line of text\n"), 500)
	view := func(c *Cache, v uint64) (sum uint32) {
		if _, ok := c.View(nil, 1, v, func(_ [][]byte, s uint32) { sum = s }); !ok {
			t.Fatalf("View(v%d) missed", v)
		}
		return sum
	}
	c := New(0, LRU)
	if err := c.Put(1, 1, base); err != nil {
		t.Fatal(err)
	}
	if got, want := view(c, 1), diff.Checksum(base); got != want {
		t.Fatalf("entry Put installed: View handed %08x, the content sums to %08x", got, want)
	}
	next := append(slices.Clone(base), "one more line\n"...)
	c.PutManifest(1, 2, c.ChunkStore().AddManifest(next, c.Params()))
	if got, want := view(c, 2), diff.Checksum(next); got != want {
		t.Fatalf("entry installed from a manifest: View handed %08x, the content sums to %08x", got, want)
	}
	if _, _, sum, _ := c.Manifest(1); sum != diff.Checksum(next) {
		t.Fatalf("Manifest handed %08x, the content sums to %08x", sum, diff.Checksum(next))
	}

	// A recorded sum is handed back as recorded, wrong or not; a panic
	// leaves the shard locked, so each install gets a cache of its own.
	wrong := diff.Checksum(base) ^ 1
	for name, put := range map[string]func(c *Cache){
		"PutFromBase": func(c *Cache) { _ = c.PutFromBase(1, 0, 1, base, wrong, nil) },
		"PutVerifiedManifest": func(c *Cache) {
			c.PutVerifiedManifest(1, 1, c.ChunkStore().AddManifest(base, c.Params()), wrong)
		},
	} {
		func() {
			c := New(0, LRU)
			put(c)
			defer func() {
				if r := recover(); (r != nil) != race.Enabled {
					t.Fatalf("%s: View of a wrong recorded sum: panic %v, race build %v", name, r, race.Enabled)
				}
			}()
			if got := view(c, 1); got != wrong {
				t.Fatalf("%s: View handed %08x, not the recorded %08x", name, got, wrong)
			}
		}()
	}
}
