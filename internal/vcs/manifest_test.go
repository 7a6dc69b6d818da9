package vcs

import (
	"math/rand"
	"slices"
	"testing"

	"shadowedit/internal/chunk"
	"shadowedit/internal/diff"
	"shadowedit/internal/workload"
)

// forgeCollision returns a copy of b, which must be at least 5 bytes long,
// with its first byte changed and bytes [at, at+4) chosen so that its CRC-32C
// equals b's. CRC is linear over GF(2): flipping a set of bits changes the
// sum by the XOR of what each flip alone changes it by, and the flips of 32
// consecutive bits reach every 32-bit change, so solving one 32×32 system
// finds the bits to flip.
func forgeCollision(b []byte, at int) []byte {
	out := slices.Clone(b)
	out[0] ^= 1
	sum := diff.Checksum(out)
	// basis[k] is a combination of bit flips (mask) whose change to the sum
	// (v) has k as its highest set bit.
	var basis [32]struct{ v, mask uint32 }
	for i := 0; i < 32; i++ {
		out[at+i/8] ^= 1 << (i % 8)
		v, mask := diff.Checksum(out)^sum, uint32(1)<<i
		out[at+i/8] ^= 1 << (i % 8)
		for k := 31; k >= 0 && v != 0; k-- {
			if v>>k&1 == 0 {
				continue
			}
			if basis[k].v == 0 {
				basis[k].v, basis[k].mask = v, mask
				break
			}
			v, mask = v^basis[k].v, mask^basis[k].mask
		}
	}
	need, flips := sum^diff.Checksum(b), uint32(0)
	for k := 31; k >= 0; k-- {
		if need>>k&1 == 1 {
			need, flips = need^basis[k].v, flips^basis[k].mask
		}
	}
	for i := 0; i < 32; i++ {
		if flips>>i&1 == 1 {
			out[at+i/8] ^= 1 << (i % 8)
		}
	}
	return out
}

// TestCommitSameSumNewContent: an edit whose CRC-32C and length match the
// head's is still an edit. Deciding "unchanged" by the sum alone would keep
// the old version, and the job would run on the old bytes.
func TestCommitSameSumNewContent(t *testing.T) {
	base := []byte("PROGRAM HEAT\n  REAL T(100)\nEND\n")
	forged := forgeCollision(base, 10)
	if diff.Checksum(forged) != diff.Checksum(base) || len(forged) != len(base) || string(forged) == string(base) {
		t.Fatal("forgeCollision did not forge a same-length collision")
	}
	s := NewStore(1)
	v1, _ := s.Commit(ref, base)
	if v2, changed := s.Commit(ref, forged); !changed || v2 != v1+1 {
		t.Fatalf("colliding edit committed as v%d, changed=%v; want v%d", v2, changed, v1+1)
	}
	if head, _ := s.HeadShared(ref); string(head.Content) != string(forged) {
		t.Fatal("head holds the old bytes")
	}
}

// TestManifestsEqualSplitUnderRetention: whatever order commits, acks,
// retention changes and the lookups that memoize manifests come in — so that
// each manifest is derived from whichever older version still has one — every
// retained version's manifest is the one a full split gives.
func TestManifestsEqualSplitUnderRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workload.NewGenerator(3)
	s := NewStore(1)
	content := g.File(16 << 10)
	var head uint64
	for op := 0; op < 600; op++ {
		switch k := rng.Intn(10); {
		case head == 0 || k < 4:
			switch rng.Intn(4) {
			case 0:
				content = g.File(1 + rng.Intn(24<<10)) // unrelated
			case 1:
				content = content[:rng.Intn(len(content)+1)] // cut short, maybe empty
			default:
				content = g.Modify(content, float64(1+rng.Intn(10)), workload.EditMixed)
			}
			head, _ = s.Commit(ref, content)
		case k < 6:
			s.Ack(ref, uint64(rng.Intn(int(head)))+1)
		case k == 6:
			s.SetRetain(rng.Intn(4))
		case k == 7:
			s.ChunkByHash(ref, chunk.Hash{}) // memoizes every retained manifest
		default:
			vs := s.Versions(ref)
			s.ManifestFor(ref, vs[rng.Intn(len(vs))])
		}
		for _, n := range s.Versions(ref) {
			m, c, err := s.ManifestFor(ref, n)
			if err != nil {
				t.Fatalf("op %d: v%d: %v", op, n, err)
			}
			if want := chunk.Split(c, chunk.DefaultParams); !slices.Equal(m, want) {
				t.Fatalf("op %d: v%d: manifest of %d refs, a full split %d", op, n, len(m), len(want))
			}
		}
	}
}

// TestCommitAtLeast: a restored client's commit (CommitRead with a floor)
// takes at least the number the server expects, even for bytes equal to its
// head; at or past that number it is an ordinary commit.
func TestCommitAtLeast(t *testing.T) {
	s := NewStore(1)
	if v, changed := commitRead(s, ref, []byte("a\n"), 7); v != 7 || !changed {
		t.Fatalf("first commit at least 7: v%d, changed %v", v, changed)
	}
	if v, changed := commitRead(s, ref, []byte("a\n"), 9); v != 9 || !changed {
		t.Fatalf("same bytes at least 9: v%d, changed %v", v, changed)
	}
	if v, changed := commitRead(s, ref, []byte("a\n"), 9); v != 9 || changed {
		t.Fatalf("same bytes at least 9 again: v%d, changed %v", v, changed)
	}
	if v, changed := commitRead(s, ref, []byte("b\n"), 2); v != 10 || !changed {
		t.Fatalf("new bytes at least 2: v%d, changed %v", v, changed)
	}
}
