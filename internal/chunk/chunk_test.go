package chunk

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomContent builds pseudo-random bytes — the content class the splitter's
// expected-chunk-size math is calibrated for.
func randomContent(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// reassemble checks a manifest tiles its content exactly and every ref's hash
// matches the slice it covers, returning the concatenation.
func reassemble(t *testing.T, m Manifest, content []byte) {
	t.Helper()
	off := 0
	for i, r := range m {
		if off+int(r.Len) > len(content) {
			t.Fatalf("ref %d overruns content: off %d + len %d > %d", i, off, r.Len, len(content))
		}
		if got := HashOf(content[off : off+int(r.Len)]); got != r.Hash {
			t.Fatalf("ref %d hash mismatch", i)
		}
		off += int(r.Len)
	}
	if off != len(content) {
		t.Fatalf("manifest covers %d of %d bytes", off, len(content))
	}
}

func TestSplitTilesContent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 255, 256, 257, 1024, 4096, 4097, 65536} {
		content := randomContent(rng, n)
		m := Split(content, DefaultParams)
		reassemble(t, m, content)
		if m.TotalLen() != int64(n) {
			t.Fatalf("n=%d: TotalLen = %d", n, m.TotalLen())
		}
	}
}

func TestSplitRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	content := randomContent(rng, 1<<18)
	m := Split(content, DefaultParams)
	if len(m) < 2 {
		t.Fatalf("256 KB split into %d chunks", len(m))
	}
	for i, r := range m {
		if int(r.Len) > DefaultParams.Max {
			t.Fatalf("chunk %d is %d bytes, max %d", i, r.Len, DefaultParams.Max)
		}
		// Every chunk but the last respects Min (the tail is whatever
		// remains).
		if i < len(m)-1 && int(r.Len) < DefaultParams.Min {
			t.Fatalf("chunk %d is %d bytes, min %d", i, r.Len, DefaultParams.Min)
		}
	}
	// Average should land within a factor of ~2 of the target on random
	// content; wild deviation means the boundary condition is broken.
	avg := float64(len(content)) / float64(len(m))
	if avg < float64(DefaultParams.Avg)/2 || avg > float64(DefaultParams.Avg)*3 {
		t.Fatalf("mean chunk size %.0f, target %d", avg, DefaultParams.Avg)
	}
}

func TestSplitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	content := randomContent(rng, 32768)
	a := Split(content, DefaultParams)
	b := Split(content, DefaultParams)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs", i)
		}
	}
}

// TestSingleEditLocality is the property the whole design rests on: a single
// byte edit perturbs only a bounded window of chunks — everything before the
// edit keeps its refs verbatim, and the splitter resynchronizes after it, so
// the delta-as-chunks transfer ships O(1) chunks per clustered edit.
func TestSingleEditLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const size = 1 << 16
	for trial := 0; trial < 50; trial++ {
		content := randomContent(rng, size)
		base := Split(content, DefaultParams)
		baseSet := make(map[Hash]bool, len(base))
		for _, r := range base {
			baseSet[r.Hash] = true
		}

		edited := append([]byte(nil), content...)
		pos := rng.Intn(size)
		switch rng.Intn(3) {
		case 0: // replace
			edited[pos] ^= byte(1 + rng.Intn(255))
		case 1: // insert
			edited = append(edited[:pos], append([]byte{byte(rng.Intn(256))}, edited[pos:]...)...)
		case 2: // delete
			edited = append(edited[:pos], edited[pos+1:]...)
		}

		m := Split(edited, DefaultParams)
		reassemble(t, m, edited)
		fresh := 0
		for _, r := range m {
			if !baseSet[r.Hash] {
				fresh++
			}
		}
		// The edit can dirty the chunk it lands in plus the resync window
		// after it. With Max=4x Avg, a generous bound is 4 fresh chunks;
		// shipping more would mean boundaries depend on position, not
		// content.
		if fresh > 4 {
			t.Fatalf("trial %d: single edit at %d dirtied %d chunks (of %d)",
				trial, pos, fresh, len(m))
		}
	}
}

// TestBoundaryContentDefined pins that boundaries depend only on content:
// the same bytes reached through a different prefix chunk identically once
// the splitter resynchronizes. Concatenating two files must reuse the second
// file's chunks from (at worst) a small resync window in.
func TestBoundaryContentDefined(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomContent(rng, 16384)
	b := randomContent(rng, 16384)
	bSet := make(map[Hash]bool)
	for _, r := range Split(b, DefaultParams) {
		bSet[r.Hash] = true
	}
	joined := append(append([]byte(nil), a...), b...)
	m := Split(joined, DefaultParams)
	reassemble(t, m, joined)
	// Count refs from b's second half that survive in the concatenation —
	// the splitter must have resynchronized well before then.
	reused := 0
	for _, r := range m {
		if bSet[r.Hash] {
			reused++
		}
	}
	if reused < len(bSet)/2 {
		t.Fatalf("only %d of %d of b's chunks reused after concatenation", reused, len(bSet))
	}
}

func TestManifestHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	content := randomContent(rng, 8192)
	m := Split(content, DefaultParams)
	if !m.Contains(m[0].Hash) {
		t.Fatal("Contains misses a present hash")
	}
	if m.Contains(HashOf([]byte("absent"))) {
		t.Fatal("Contains finds an absent hash")
	}
	c := m.Clone()
	c[0].Len++
	if m[0].Len == c[0].Len {
		t.Fatal("Clone shares backing storage")
	}
	if Manifest(nil).Clone() != nil {
		t.Fatal("nil Clone must stay nil")
	}
}

func TestBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-power-of-two Avg")
		}
	}()
	Split([]byte("x"), Params{Min: 1, Avg: 3, Max: 10})
}

// FuzzSplitStability drives the splitter with arbitrary content and a random
// single-byte perturbation, checking the invariants that matter for the
// protocol: manifests tile their content, respect Max, and an edit never
// invalidates chunks strictly before the byte it touched.
func FuzzSplitStability(f *testing.F) {
	f.Add([]byte("hello world"), uint16(3))
	f.Add(bytes.Repeat([]byte{0}, 5000), uint16(100))
	f.Add(bytes.Repeat([]byte("abc"), 3000), uint16(4000))
	f.Fuzz(func(t *testing.T, content []byte, editPos uint16) {
		if len(content) > 1<<20 {
			return
		}
		m := Split(content, DefaultParams)
		off := 0
		for _, r := range m {
			if int(r.Len) > DefaultParams.Max || r.Len == 0 {
				t.Fatalf("chunk len %d out of range", r.Len)
			}
			off += int(r.Len)
		}
		if off != len(content) {
			t.Fatalf("manifest covers %d of %d bytes", off, len(content))
		}
		if len(content) == 0 {
			return
		}
		pos := int(editPos) % len(content)
		edited := append([]byte(nil), content...)
		edited[pos] ^= 0x5a
		em := Split(edited, DefaultParams)
		// Chunks that end strictly before the edited byte must be identical:
		// the gear window never looks forward.
		eoff := 0
		for i, r := range em {
			if eoff+int(r.Len) > pos {
				break
			}
			if i >= len(m) || m[i] != r {
				t.Fatalf("chunk %d (ends at %d, edit at %d) changed", i, eoff+int(r.Len), pos)
			}
			eoff += int(r.Len)
		}
	})
}

// Contains reports whether the manifest references h. Manifests are short
// (tens of entries), so a linear scan beats building a map — and allocates
// nothing.
func (m Manifest) Contains(h Hash) bool {
	for _, r := range m {
		if r.Hash == h {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the manifest.
func (m Manifest) Clone() Manifest {
	if m == nil {
		return nil
	}
	out := make(Manifest, len(m))
	copy(out, m)
	return out
}
