package chunk

import (
	"bytes"
	"math/rand"
	"testing"
)

// smallParams makes a few KB of content dozens of chunks, so the boundary
// cases (an edit exactly on a boundary, two edits inside one Min, a run of
// forced cuts) are dense instead of rare.
var smallParams = Params{Min: 16, Avg: 64, Max: 256}

// scriptBase builds a base file out of the content classes the splitter
// treats differently: text lines, incompressible bytes, and constant runs
// (which never hit the boundary mask, so they chunk by forced Max cuts).
func scriptBase(intn func(int) int, maxLen int) []byte {
	n := intn(maxLen + 1)
	if intn(20) == 0 {
		n = 0 // empty base
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		seg := 1 + intn(n-len(out))
		switch intn(3) {
		case 0:
			for i := 0; i < seg; i++ {
				out = append(out, byte(intn(256)))
			}
		case 1:
			out = append(out, bytes.Repeat([]byte{byte(intn(4))}, seg)...)
		default:
			for i := 0; i < seg; i++ {
				c := byte('a' + intn(26))
				if intn(30) == 0 {
					c = '\n'
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// editScript applies a random ascending edit script to base and returns the
// target with the spans describing it. Positions favour the places Resplit
// can get wrong: offset 0, EOF, the old chunk boundaries and their
// neighbours; gaps between edits favour 0, 1 and less than Min; lengths run
// from nothing to several chunks.
func editScript(intn func(int) int, base []byte, m Manifest, p Params) (target []byte, spans []Span) {
	bounds := []int{0}
	for _, r := range m {
		bounds = append(bounds, bounds[len(bounds)-1]+int(r.Len))
	}
	length := func() int {
		switch intn(5) {
		case 0:
			return 0
		case 1:
			return 1 + intn(3)
		case 2:
			return 1 + intn(p.Min)
		case 3:
			return p.Max + intn(p.Max)
		default:
			return 1 + intn(3*p.Avg)
		}
	}
	if intn(25) == 0 { // empty target: one deletion of everything
		if len(base) == 0 {
			return nil, nil
		}
		return nil, []Span{{BaseEnd: len(base)}}
	}
	pos := 0 // base bytes consumed
	for edits := 1 + intn(6); edits > 0 && pos <= len(base); edits-- {
		var at int
		switch intn(6) {
		case 0:
			at = pos
		case 1:
			at = pos + 1 + intn(p.Min)
		case 2:
			at = len(base)
		case 3, 4:
			at = bounds[intn(len(bounds))] + intn(3) - 1
		default:
			at = pos + intn(len(base)-pos+1)
		}
		if at < pos {
			at = pos
		}
		if at > len(base) {
			at = len(base)
		}
		target = append(target, base[pos:at]...)
		del, ins := length(), length()
		if kind := intn(3); kind == 0 {
			del = 0
		} else if kind == 1 {
			ins = 0
		}
		if del > len(base)-at {
			del = len(base) - at
		}
		s := Span{BaseStart: at, BaseEnd: at + del, TargetStart: len(target)}
		for i := 0; i < ins; i++ {
			target = append(target, byte(intn(256)))
		}
		s.TargetEnd = len(target)
		spans = append(spans, s)
		pos = at + del
	}
	return append(target, base[pos:]...), spans
}

func checkResplit(t *testing.T, base, target []byte, spans []Span, p Params) {
	t.Helper()
	bm := Split(base, p)
	got, from, ok := Resplit(bm, target, spans, p)
	if !ok {
		t.Fatalf("Resplit refused a valid script: base %d target %d spans %v", len(base), len(target), spans)
	}
	// from names, in ascending order, a base ref equal to each copied one.
	if len(from) != len(got) {
		t.Fatalf("Resplit accounted for %d of %d refs", len(from), len(got))
	}
	last := int32(-1)
	for j, bi := range from {
		if bi >= 0 && (bi <= last || int(bi) >= len(bm) || bm[bi] != got[j]) {
			t.Fatalf("ref %d: from %d (previous copy %d) does not name an equal base ref", j, bi, last)
		}
		last = max(last, bi)
	}
	want := Split(target, p)
	if len(got) != len(want) {
		t.Fatalf("Resplit gave %d chunks, Split %d (base %d target %d spans %v)",
			len(got), len(want), len(base), len(target), spans)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunk %d: Resplit len %d, Split len %d (spans %v)", i, got[i].Len, want[i].Len, spans)
		}
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("nil-ness differs: Resplit %v, Split %v", got == nil, want == nil)
	}
}

// TestResplitEqualsSplit is the oracle the arrival path rests on: for any
// edit script, the manifest derived from the base manifest and the spans is
// the manifest a full split of the target gives.
func TestResplitEqualsSplit(t *testing.T) {
	scripts := 12000
	if testing.Short() {
		scripts = 2000
	}
	for seed := 0; seed < scripts; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p, maxLen := smallParams, 4<<10
		if seed%4 == 0 {
			p, maxLen = DefaultParams, 48<<10
		}
		base := scriptBase(rng.Intn, maxLen)
		target, spans := editScript(rng.Intn, base, Split(base, p), p)
		checkResplit(t, base, target, spans, p)
	}
}

// TestResplitNamedCases pins the cases the random scripts reach only by
// chance.
func TestResplitNamedCases(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := DefaultParams
	base := randomContent(rng, 64<<10)
	m := Split(base, p)
	b3 := int(m[0].Len + m[1].Len + m[2].Len) // a boundary well inside
	ins := randomContent(rng, 700)
	splice := func(at, del int, ins []byte) ([]byte, []Span) {
		out := append(append(append([]byte(nil), base[:at]...), ins...), base[at+del:]...)
		return out, []Span{{BaseStart: at, BaseEnd: at + del, TargetStart: at, TargetEnd: at + len(ins)}}
	}
	cases := []struct {
		name     string
		at, del  int
		inserted []byte
	}{
		{"no edit", 0, 0, nil},
		{"insert at 0", 0, 0, ins},
		{"delete at 0", 0, 300, nil},
		{"append at EOF", len(base), 0, ins},
		{"truncate at EOF", len(base) - 5000, 5000, nil},
		{"insert on a boundary", b3, 0, ins},
		{"delete one whole chunk", b3, int(m[3].Len), nil},
		{"change across four chunks", b3 - 10, int(m[3].Len+m[4].Len+m[5].Len) + 20, ins},
		{"same-length change", 30000, 40, ins[:40]},
		{"insert a forced-cut run", 30000, 0, make([]byte, 3*p.Max)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target, spans := splice(tc.at, tc.del, tc.inserted)
			if tc.name == "no edit" {
				spans = nil
			}
			checkResplit(t, base, target, spans, p)
		})
	}
	t.Run("empty base", func(t *testing.T) {
		checkResplit(t, nil, ins, []Span{{TargetEnd: len(ins)}}, p)
	})
	t.Run("empty target", func(t *testing.T) {
		checkResplit(t, base, nil, []Span{{BaseEnd: len(base)}}, p)
	})
	t.Run("both empty", func(t *testing.T) {
		checkResplit(t, nil, nil, nil, p)
	})
}

// TestResplitReusesUnchangedChunks checks the point of the exercise: a small
// edit in a large file hashes a handful of chunks, not all of them. Reused
// refs are recognizable because Resplit copies them from the base manifest;
// a sentinel hash planted there survives only if the chunk was not re-cut.
func TestResplitReusesUnchangedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomContent(rng, 256<<10)
	m := Split(base, DefaultParams)
	target := append([]byte(nil), base...)
	const at = 100_000
	copy(target[at:], "edited")
	spans := []Span{{BaseStart: at, BaseEnd: at + 6, TargetStart: at, TargetEnd: at + 6}}

	marked := m.Clone()
	for i := range marked {
		marked[i].Hash = Hash{0xff}
	}
	got, _, ok := Resplit(marked, target, spans, DefaultParams)
	if !ok {
		t.Fatal("Resplit refused")
	}
	fresh := 0
	for _, r := range got {
		if r.Hash != (Hash{0xff}) {
			fresh++
		}
	}
	if fresh == 0 || fresh > 4 {
		t.Fatalf("a 6-byte edit re-hashed %d of %d chunks", fresh, len(got))
	}
}

func TestResplitRejectsInconsistentSpans(t *testing.T) {
	base := bytes.Repeat([]byte("0123456789abcdef\n"), 400)
	m := Split(base, DefaultParams)
	target := append([]byte("xx"), base...)
	bad := [][]Span{
		{{BaseStart: 0, BaseEnd: 0, TargetStart: 0, TargetEnd: 3}},                         // lengths disagree
		{{BaseStart: 5, BaseEnd: 4, TargetStart: 5, TargetEnd: 7}},                         // inverted
		{{BaseStart: 0, BaseEnd: 0, TargetStart: 1, TargetEnd: 3}},                         // target start off
		{{BaseStart: 0, BaseEnd: len(base) + 1, TargetStart: 0, TargetEnd: len(base) + 3}}, // past the base
		{{BaseStart: 9, BaseEnd: 9, TargetStart: 9, TargetEnd: 10}, {BaseStart: 3, BaseEnd: 3, TargetStart: 4, TargetEnd: 5}},
		{{BaseStart: -1, BaseEnd: 0, TargetStart: -1, TargetEnd: 2}},
	}
	for i, spans := range bad {
		if _, _, ok := Resplit(m, target, spans, DefaultParams); ok {
			t.Errorf("case %d: inconsistent spans %v accepted", i, spans)
		}
	}
}

// TestResplitRejectsEmptyBaseChunk: a zero-length ref never comes out of
// Split, but a manifest can come from elsewhere. Reusing one would not advance
// the walk, so Resplit must refuse it — wherever it sits — instead of looping.
func TestResplitRejectsEmptyBaseChunk(t *testing.T) {
	base := bytes.Repeat([]byte("0123456789abcdef\n"), 400)
	m := Split(base, DefaultParams)
	target := append([]byte(nil), base...)
	at := len(base) - 3
	target[at] = 'X'
	spans := []Span{{BaseStart: at, BaseEnd: at + 1, TargetStart: at, TargetEnd: at + 1}}
	for i := range m {
		lying := m.Clone()
		if i+1 < len(lying) {
			lying[i+1].Len += lying[i].Len // keep the total, so only the empty ref is wrong
		}
		lying[i].Len = 0
		if _, _, ok := Resplit(lying, target, spans, DefaultParams); ok {
			t.Fatalf("base with an empty chunk at %d accepted", i)
		}
	}
}

// FuzzResplit drives the same oracle from fuzzer-chosen bytes: the first
// input seeds the base, the second is consumed as the script's random
// choices (exhausted input reads as zero, which is itself an edge: every
// edit at the cursor, every length empty).
func FuzzResplit(f *testing.F) {
	f.Add([]byte("seed"), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytes.Repeat([]byte{7}, 64), bytes.Repeat([]byte{0xff, 0x10}, 40))
	f.Add([]byte{}, []byte{})
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
		target, spans := editScript(intn, base, Split(base, smallParams), smallParams)
		checkResplit(t, base, target, spans, smallParams)
	})
}
