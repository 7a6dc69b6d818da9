package diff

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

var allAlgorithms = []Algorithm{HuntMcIlroy, Myers, TichyBlockMove}

func mustCompute(t *testing.T, alg Algorithm, base, target []byte) *Delta {
	t.Helper()
	d, err := Compute(alg, base, target)
	if err != nil {
		t.Fatalf("Compute(%v): %v", alg, err)
	}
	return d
}

func roundTrip(t *testing.T, alg Algorithm, base, target string) *Delta {
	t.Helper()
	d := mustCompute(t, alg, []byte(base), []byte(target))
	got, err := d.Apply([]byte(base))
	if err != nil {
		t.Fatalf("Apply(%v): %v", alg, err)
	}
	if string(got) != target {
		t.Fatalf("Apply(%v) = %q, want %q", alg, got, target)
	}
	return d
}

func TestComputeApplyBasicCases(t *testing.T) {
	tests := []struct {
		name   string
		base   string
		target string
	}{
		{name: "identical", base: "a\nb\nc\n", target: "a\nb\nc\n"},
		{name: "empty both", base: "", target: ""},
		{name: "empty base", base: "", target: "x\ny\n"},
		{name: "empty target", base: "x\ny\n", target: ""},
		{name: "insert middle", base: "a\nb\nc\n", target: "a\nb\nX\nc\n"},
		{name: "insert top", base: "a\nb\n", target: "X\na\nb\n"},
		{name: "insert bottom", base: "a\nb\n", target: "a\nb\nX\n"},
		{name: "delete middle", base: "a\nb\nc\n", target: "a\nc\n"},
		{name: "delete first", base: "a\nb\nc\n", target: "b\nc\n"},
		{name: "delete last", base: "a\nb\nc\n", target: "a\nb\n"},
		{name: "change one", base: "a\nb\nc\n", target: "a\nX\nc\n"},
		{name: "change block", base: "a\nb\nc\nd\n", target: "a\nX\nY\nZ\nd\n"},
		{name: "total rewrite", base: "a\nb\n", target: "x\ny\nz\n"},
		{name: "no trailing newline base", base: "a\nb", target: "a\nb\nc\n"},
		{name: "no trailing newline target", base: "a\nb\n", target: "a\nb\nc"},
		{name: "only newline changes", base: "a", target: "a\n"},
		{name: "duplicate lines", base: "x\nx\nx\ny\n", target: "x\ny\nx\nx\n"},
		{name: "swap halves", base: "a\nb\nc\nd\n", target: "c\nd\na\nb\n"},
		{name: "binaryish", base: "\x00\x01\n\xff\n", target: "\x00\x01\n\xfe\n"},
	}
	for _, tt := range tests {
		for _, alg := range allAlgorithms {
			t.Run(fmt.Sprintf("%s/%v", tt.name, alg), func(t *testing.T) {
				roundTrip(t, alg, tt.base, tt.target)
			})
		}
	}
}

func TestDeltaIdenticalIsEmpty(t *testing.T) {
	for _, alg := range []Algorithm{HuntMcIlroy, Myers} {
		d := mustCompute(t, alg, []byte("a\nb\n"), []byte("a\nb\n"))
		if len(d.Ops) != 0 {
			t.Errorf("%v: identical inputs produced %d ops, want 0", alg, len(d.Ops))
		}
	}
}

func TestDeltaSmallChangeIsSmall(t *testing.T) {
	// The paper's core premise: a small edit yields a delta much smaller
	// than the file.
	base := repeatLines("line %04d of the original file with some padding text\n", 2000)
	target := strings.Replace(base, "line 0977", "LINE 0977", 1)
	for _, alg := range allAlgorithms {
		d := mustCompute(t, alg, []byte(base), []byte(target))
		if ws := d.WireSize(); ws > len(base)/10 {
			t.Errorf("%v: wire size %d not small vs file size %d", alg, ws, len(base))
		}
		got, err := d.Apply([]byte(base))
		if err != nil || string(got) != target {
			t.Fatalf("%v: apply failed: %v", alg, err)
		}
	}
}

func TestApplyWrongBase(t *testing.T) {
	d := mustCompute(t, HuntMcIlroy, []byte("a\nb\n"), []byte("a\nc\n"))
	if _, err := d.Apply([]byte("a\nX\n")); err != ErrBaseMismatch {
		t.Fatalf("Apply(wrong base) err = %v, want ErrBaseMismatch", err)
	}
	// Same length, different content must also fail.
	if _, err := d.Apply([]byte("a\nz\n")); err != ErrBaseMismatch {
		t.Fatalf("Apply(same-length wrong base) err = %v, want ErrBaseMismatch", err)
	}
}

func TestApplyTamperedDelta(t *testing.T) {
	d := mustCompute(t, HuntMcIlroy, []byte("a\nb\nc\n"), []byte("a\nX\nc\n"))
	d.Ops[0].Lines[0] = []byte("Y\n")
	if _, err := d.Apply([]byte("a\nb\nc\n")); err != ErrVerifyFailed {
		t.Fatalf("Apply(tampered) err = %v, want ErrVerifyFailed", err)
	}
}

func TestApplyCorruptOps(t *testing.T) {
	base := []byte("a\nb\nc\n")
	tests := []struct {
		name string
		op   Op
	}{
		{name: "delete past end", op: Op{Kind: OpDelete, BaseStart: 2, BaseEnd: 9}},
		{name: "delete zero start", op: Op{Kind: OpDelete, BaseStart: 0, BaseEnd: 1}},
		{name: "inverted range", op: Op{Kind: OpChange, BaseStart: 3, BaseEnd: 1}},
		{name: "insert past end", op: Op{Kind: OpInsert, BaseStart: 99, Lines: [][]byte{[]byte("x\n")}}},
		{name: "copy in edit delta", op: Op{Kind: OpCopy, BaseStart: 1, BaseEnd: 9}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ApplyOps([]Op{tt.op}, base); err == nil {
				t.Fatal("ApplyOps succeeded on corrupt op, want error")
			}
		})
	}
}

func TestTichyExpressesBlockMoves(t *testing.T) {
	// A pure reordering: LCS-based deltas must resend roughly half the
	// file; the block-move delta copies both halves.
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "alpha block line %d\n", i)
	}
	half := sb.String()
	var sb2 strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb2, "beta block line %d\n", i)
	}
	base := half + sb2.String()
	target := sb2.String() + half

	tichy := mustCompute(t, TichyBlockMove, []byte(base), []byte(target))
	lcs := mustCompute(t, HuntMcIlroy, []byte(base), []byte(target))
	if tws, lws := tichy.WireSize(), lcs.WireSize(); tws >= lws/4 {
		t.Errorf("block-move wire size %d not far below LCS %d on a reorder", tws, lws)
	}
	got, err := tichy.Apply([]byte(base))
	if err != nil || string(got) != target {
		t.Fatalf("tichy apply failed: %v", err)
	}
}

func TestTichyRepeatedBlocks(t *testing.T) {
	base := "chorus line 1\nchorus line 2\n"
	target := base + "verse\n" + base + base
	roundTrip(t, TichyBlockMove, base, target)
}

func TestHuntFallbackOnPathologicalInput(t *testing.T) {
	// Thousands of identical lines would generate ~n^2 match pairs; the
	// implementation must stay fast by falling back to Myers.
	base := strings.Repeat("same\n", 3000)
	target := strings.Repeat("same\n", 2999) + "different\n"
	d := roundTrip(t, HuntMcIlroy, base, target)
	if d.WireSize() > 4096 {
		t.Errorf("pathological input delta unexpectedly large: %d bytes", d.WireSize())
	}
}

func TestOpsOrderedDescending(t *testing.T) {
	base := repeatLines("row %d\n", 50)
	target := strings.NewReplacer("row 5\n", "ROW 5\n", "row 25\n", "", "row 40\n", "row 40\nrow 40.5\n").Replace(base)
	for _, alg := range []Algorithm{HuntMcIlroy, Myers} {
		d := mustCompute(t, alg, []byte(base), []byte(target))
		last := 1 << 30
		for _, op := range d.Ops {
			if op.BaseStart > last {
				t.Fatalf("%v: ops not in descending base order: %v", alg, d.Ops)
			}
			last = op.BaseStart
		}
	}
}

func TestChecksumDistinguishesContent(t *testing.T) {
	if Checksum([]byte("a")) == Checksum([]byte("b")) {
		t.Fatal("Checksum collision on trivial inputs")
	}
	if Checksum(nil) != Checksum([]byte{}) {
		t.Fatal("Checksum(nil) != Checksum(empty)")
	}
}

func TestAlgorithmString(t *testing.T) {
	tests := []struct {
		alg  Algorithm
		want string
	}{
		{HuntMcIlroy, "hunt-mcilroy"},
		{Myers, "myers"},
		{TichyBlockMove, "tichy"},
		{Algorithm(99), "algorithm(99)"},
	}
	for _, tt := range tests {
		if got := tt.alg.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.alg), got, tt.want)
		}
	}
}

func TestComputeUnknownAlgorithm(t *testing.T) {
	if _, err := Compute(Algorithm(0), nil, nil); err == nil {
		t.Fatal("Compute(0) succeeded, want error")
	}
}

// randomDoc builds a random document of up to maxLines lines drawn from a
// small alphabet so matches are plentiful.
func randomDoc(rng *rand.Rand, maxLines int) []byte {
	n := rng.Intn(maxLines + 1)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "w%d\n", rng.Intn(8))
	}
	if n > 0 && rng.Intn(4) == 0 {
		buf.WriteString("tail-no-newline")
	}
	return buf.Bytes()
}

// mutateDoc applies a random number of line edits to a document.
func mutateDoc(rng *rand.Rand, doc []byte) []byte {
	lines := SplitLines(doc)
	for k := rng.Intn(6); k >= 0; k-- {
		switch op := rng.Intn(3); {
		case op == 0 && len(lines) > 0: // delete
			i := rng.Intn(len(lines))
			lines = append(lines[:i], lines[i+1:]...)
		case op == 1: // insert
			i := rng.Intn(len(lines) + 1)
			l := []byte(fmt.Sprintf("n%d\n", rng.Intn(8)))
			lines = append(lines[:i], append([][]byte{l}, lines[i:]...)...)
		case op == 2 && len(lines) > 0: // replace
			i := rng.Intn(len(lines))
			lines[i] = []byte(fmt.Sprintf("r%d\n", rng.Intn(8)))
		}
	}
	return JoinLines(lines)
}

func TestPropertyApplyRoundTrip(t *testing.T) {
	// Property: for random (base, target) pairs, Apply(Compute(base,
	// target), base) == target for every algorithm — including targets
	// unrelated to the base.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		base := randomDoc(rng, 40)
		var target []byte
		if trial%3 == 0 {
			target = randomDoc(rng, 40) // unrelated
		} else {
			target = mutateDoc(rng, base) // edit of base
		}
		for _, alg := range allAlgorithms {
			d, err := Compute(alg, base, target)
			if err != nil {
				t.Fatalf("trial %d %v: Compute: %v", trial, alg, err)
			}
			got, err := d.Apply(base)
			if err != nil {
				t.Fatalf("trial %d %v: Apply: %v\nbase=%q\ntarget=%q", trial, alg, err, base, target)
			}
			if !bytes.Equal(got, target) {
				t.Fatalf("trial %d %v: got %q, want %q (base %q)", trial, alg, got, target, base)
			}
		}
	}
}

func TestPropertyEncodedRoundTrip(t *testing.T) {
	// Property: Decode(Encode(d)) is semantically identical — it applies
	// to the same base and yields the same target.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		base := randomDoc(rng, 30)
		target := mutateDoc(rng, base)
		for _, alg := range allAlgorithms {
			d, err := Compute(alg, base, target)
			if err != nil {
				t.Fatalf("Compute: %v", err)
			}
			d2, err := Decode(d.Encode())
			if err != nil {
				t.Fatalf("trial %d %v: Decode: %v", trial, alg, err)
			}
			got, err := d2.Apply(base)
			if err != nil || !bytes.Equal(got, target) {
				t.Fatalf("trial %d %v: decoded delta broken: %v", trial, alg, err)
			}
		}
	}
}

func TestPropertyLCSMatchesAreCommonSubsequence(t *testing.T) {
	// Property: the matches reported by both LCS algorithms reference
	// equal lines and ascend strictly in both files.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a := SplitLines(randomDoc(rng, 30))
		b := SplitLines(randomDoc(rng, 30))
		for name, fn := range map[string]func(x, y [][]byte) []match{
			"hunt":  huntMcIlroyMatches,
			"myers": myersMatches,
		} {
			prevA, prevB := -1, -1
			for _, m := range fn(a, b) {
				if m.ai <= prevA || m.bi <= prevB || m.n <= 0 {
					t.Fatalf("%s trial %d: non-ascending match %+v", name, trial, m)
				}
				if prevA >= 0 && m.ai == prevA+1 && m.bi == prevB+1 {
					t.Fatalf("%s trial %d: run %+v abuts the one before: runs not maximal", name, trial, m)
				}
				for k := 0; k < m.n; k++ {
					if !bytes.Equal(a[m.ai+k], b[m.bi+k]) {
						t.Fatalf("%s trial %d: match pairs unequal lines", name, trial)
					}
				}
				prevA, prevB = m.ai+m.n-1, m.bi+m.n-1
			}
		}
	}
}

func TestMyersNotWorseThanNaive(t *testing.T) {
	// Myers finds a maximal LCS; on small inputs compare against an
	// O(nm) dynamic program.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		a := SplitLines(randomDoc(rng, 12))
		b := SplitLines(randomDoc(rng, 12))
		want := naiveLCSLen(a, b)
		got := 0
		for _, m := range myersMatches(a, b) {
			got += m.n
		}
		if got != want {
			t.Fatalf("trial %d: myers LCS len %d, dp says %d", trial, got, want)
		}
	}
}

func TestHuntFindsMaximalLCS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		a := SplitLines(randomDoc(rng, 12))
		b := SplitLines(randomDoc(rng, 12))
		want := naiveLCSLen(a, b)
		got := 0
		for _, m := range huntMcIlroyMatches(a, b) {
			got += m.n
		}
		if got != want {
			t.Fatalf("trial %d: hunt LCS len %d, dp says %d\na=%q\nb=%q", trial, got, want, a, b)
		}
	}
}

func naiveLCSLen(a, b [][]byte) int {
	dp := make([][]int, len(a)+1)
	for i := range dp {
		dp[i] = make([]int, len(b)+1)
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if bytes.Equal(a[i-1], b[j-1]) {
				dp[i][j] = dp[i-1][j-1] + 1
			} else if dp[i-1][j] >= dp[i][j-1] {
				dp[i][j] = dp[i-1][j]
			} else {
				dp[i][j] = dp[i][j-1]
			}
		}
	}
	return dp[len(a)][len(b)]
}

func repeatLines(format string, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, format, i)
	}
	return sb.String()
}
