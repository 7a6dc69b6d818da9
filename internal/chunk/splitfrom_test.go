package chunk

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// refSplit is the plain cutting loop SplitFrom must agree with: every chunk
// cut and hashed, nothing taken from a predecessor.
func refSplit(data []byte, p Params) Manifest {
	var m Manifest
	mask := uint64(p.Avg - 1)
	for len(data) > 0 {
		n := cut(data, p, mask)
		m = append(m, Ref{Hash: HashOf(data[:n]), Len: uint32(n)})
		data = data[n:]
	}
	return m
}

// editFrom draws a new version of base from intn: an edit script
// (insertions, deletions and replacements, see editScript), an in-place
// overwrite, the base cut short or run on past its end, or content unrelated
// to it (which may be empty). The overwrite and the run-on are the cases
// that tell a chunk taken whole from one merely the same length.
func editFrom(intn func(int) int, base []byte, p Params) []byte {
	switch intn(8) {
	case 0:
		return scriptBase(intn, len(base)+p.Max)
	case 1:
		return base[:intn(len(base)+1)]
	case 2:
		out := slices.Clone(base)
		for n := 1 + intn(2*p.Max); n > 0; n-- {
			out = append(out, byte('a'+intn(26)))
		}
		return out
	case 3:
		out := slices.Clone(base)
		for edits := 1 + intn(4); edits > 0 && len(out) > 0; edits-- {
			at := intn(len(out))
			for i := at; i < min(len(out), at+1+intn(p.Min)); i++ {
				out[i] ^= byte(1 + intn(255))
			}
		}
		return out
	default:
		target, _ := editScript(intn, base, Split(base, p), p)
		return target
	}
}

func checkSplitFrom(t *testing.T, base, target []byte, p Params) {
	t.Helper()
	got := SplitFrom(Split(base, p), base, target, p)
	want := refSplit(target, p)
	if !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("SplitFrom gave %d chunks, a full split %d (base %d bytes, target %d)",
			len(got), len(want), len(base), len(target))
	}
	if split := Split(target, p); !slices.Equal(split, want) {
		t.Fatalf("Split gave %d chunks, the cutting loop %d", len(split), len(want))
	}
}

// TestSplitFromEqualsSplit is the oracle the client's manifests rest on: for
// any new version of a file, the manifest derived from the previous one is
// the manifest a full split gives.
func TestSplitFromEqualsSplit(t *testing.T) {
	versions := 12000
	if testing.Short() {
		versions = 2000
	}
	for seed := 0; seed < versions; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p, maxLen := smallParams, 4<<10
		if seed%4 == 0 {
			p, maxLen = DefaultParams, 48<<10
		}
		base := scriptBase(rng.Intn, maxLen)
		checkSplitFrom(t, base, editFrom(rng.Intn, base, p), p)
	}
}

// TestSplitFromNamedCases pins the cases the random versions reach only by
// chance, on a text file of the client's usual shape.
func TestSplitFromNamedCases(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := DefaultParams
	var base []byte
	for len(base) < 64<<10 {
		base = append(base, bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 1+rng.Intn(70))...)
		base = append(base, '\n')
	}
	m := Split(base, p)
	b3 := int(m[0].Len + m[1].Len + m[2].Len) // a boundary well inside
	var wide int                              // more chunks than SplitFrom looks ahead
	for _, r := range m[3 : 4+resyncWindow] {
		wide += int(r.Len)
	}
	ins := randomContent(rng, 700)
	splice := func(at, del int, ins []byte) []byte {
		return slices.Concat(base[:at], ins, base[at+del:])
	}
	overwrite := slices.Clone(base)
	copy(overwrite[30000:], "same length, other bytes")
	cases := []struct {
		name   string
		target []byte
	}{
		{"no edit", base},
		{"insert at 0", splice(0, 0, ins)},
		{"delete at 0", splice(0, 300, nil)},
		{"append at EOF", splice(len(base), 0, ins)},
		{"truncate at EOF", base[:len(base)-5000]},
		{"insert on a boundary", splice(b3, 0, ins)},
		{"delete one whole chunk", splice(b3, int(m[3].Len), nil)},
		{"delete past the window", splice(b3, wide, nil)},
		{"change across four chunks", splice(b3-10, int(m[3].Len+m[4].Len+m[5].Len)+20, ins)},
		{"same-length change", overwrite},
		{"insert a forced-cut run", splice(30000, 0, make([]byte, 3*p.Max))},
		{"unrelated content", randomContent(rng, 40<<10)},
		{"no newline", bytes.TrimRight(base, "\n")},
		{"empty target", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkSplitFrom(t, base, tc.target, p) })
	}
	t.Run("empty base", func(t *testing.T) { checkSplitFrom(t, nil, ins, p) })
	t.Run("both empty", func(t *testing.T) { checkSplitFrom(t, nil, nil, p) })
}

// TestSplitFromReusesUnchangedChunks checks the point of the exercise: a
// small edit in a large file hashes a handful of chunks, not all of them. A
// ref SplitFrom takes from prev keeps prev's hash, so a sentinel hash
// planted there survives only where a chunk was not hashed again.
func TestSplitFromReusesUnchangedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomContent(rng, 256<<10)
	marked := Split(base, DefaultParams)
	for i := range marked {
		marked[i].Hash = Hash{0xff}
	}
	for _, edit := range []struct {
		name   string
		target []byte
	}{
		{"overwrite", func() []byte { b := slices.Clone(base); copy(b[100_000:], "edited"); return b }()},
		{"insert", slices.Concat(base[:100_000], []byte("inserted"), base[100_000:])},
		{"delete", slices.Concat(base[:100_000], base[100_100:])},
	} {
		fresh := 0
		for _, r := range SplitFrom(marked, base, edit.target, DefaultParams) {
			if r.Hash != (Hash{0xff}) {
				fresh++
			}
		}
		if fresh == 0 || fresh > 4 {
			t.Errorf("%s: a small edit re-hashed %d chunks", edit.name, fresh)
		}
	}
}

// FuzzSplitFrom drives the same oracle from fuzzer-chosen bytes: the first
// input seeds the base, the second is consumed as the new version's random
// choices (exhausted input reads as zero). The first two choice bytes pick
// the kind of version (editFrom): the seeds cover each kind.
func FuzzSplitFrom(f *testing.F) {
	f.Add([]byte("seed"), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytes.Repeat([]byte{7}, 64), bytes.Repeat([]byte{0xff, 0x10}, 40))
	f.Add([]byte{}, []byte{})
	f.Add([]byte("unrelated"), []byte{0, 0, 200, 3, 17, 9, 44})
	f.Add([]byte("truncated"), []byte{1, 0, 150, 2})
	f.Add([]byte("run on"), []byte{2, 0, 90, 1, 5, 6, 7})
	f.Add([]byte("overwrite"), []byte{3, 0, 3, 0, 40, 2, 7, 0, 9, 1, 200, 0, 33, 0, 12, 1, 90, 0, 8})
	f.Add([]byte("script"), []byte{4, 0, 5, 1, 2, 0, 0, 3, 1, 9, 0, 1, 70, 2})
	f.Fuzz(func(t *testing.T, seed, choices []byte) {
		var s int64
		for _, b := range seed {
			s = s*131 + int64(b)
		}
		base := scriptBase(rand.New(rand.NewSource(s)).Intn, 4<<10)
		intn := func(n int) int {
			if n <= 1 || len(choices) == 0 {
				return 0
			}
			v := int(choices[0])
			if len(choices) > 1 {
				v |= int(choices[1]) << 8
				choices = choices[1:]
			}
			choices = choices[1:]
			return v % n
		}
		checkSplitFrom(t, base, editFrom(intn, base, smallParams), smallParams)
	})
}
