package diff

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitLines(t *testing.T) {
	tests := []struct {
		name string
		give string
		want []string
	}{
		{name: "empty", give: "", want: nil},
		{name: "one line", give: "a\n", want: []string{"a\n"}},
		{name: "no trailing newline", give: "a", want: []string{"a"}},
		{name: "two lines", give: "a\nb\n", want: []string{"a\n", "b\n"}},
		{name: "mixed", give: "a\nb", want: []string{"a\n", "b"}},
		{name: "blank lines", give: "\n\n", want: []string{"\n", "\n"}},
		{name: "leading blank", give: "\na\n", want: []string{"\n", "a\n"}},
		{name: "just newline", give: "\n", want: []string{"\n"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := SplitLines([]byte(tt.give))
			if len(got) != len(tt.want) {
				t.Fatalf("SplitLines(%q) = %q, want %q", tt.give, got, tt.want)
			}
			for i := range got {
				if string(got[i]) != tt.want[i] {
					t.Fatalf("SplitLines(%q)[%d] = %q, want %q", tt.give, i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestSplitJoinQuick(t *testing.T) {
	// Property: JoinLines(SplitLines(b)) == b for arbitrary bytes.
	f := func(b []byte) bool {
		return bytes.Equal(JoinLines(SplitLines(b)), b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitLinesEveryLineTerminatedExceptLast(t *testing.T) {
	f := func(b []byte) bool {
		lines := SplitLines(b)
		for i, l := range lines {
			if len(l) == 0 {
				return false
			}
			terminated := l[len(l)-1] == '\n'
			if i < len(lines)-1 && !terminated {
				return false
			}
			if bytes.IndexByte(l[:len(l)-1], '\n') >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInternBoth(t *testing.T) {
	a := SplitLines([]byte("x\ny\nx\n"))
	b := SplitLines([]byte("y\nz\n"))
	sa, sb, nsym := new(hmScratch).internBoth(JoinLines(a), JoinLines(b))
	if nsym != 3 {
		t.Errorf("nsym = %d, want 3 distinct lines", nsym)
	}
	for _, s := range append(append([]int(nil), sa...), sb...) {
		if s < 1 || s > nsym {
			t.Errorf("symbol %d outside dense range 1..%d", s, nsym)
		}
	}
	if sa[0] != sa[2] {
		t.Error("equal lines interned to different symbols")
	}
	if sa[0] == sa[1] {
		t.Error("distinct lines interned to the same symbol")
	}
	if sa[1] != sb[0] {
		t.Error("equal lines across files interned to different symbols")
	}
	if sb[1] == sa[0] || sb[1] == sa[1] {
		t.Error("fresh line reused an existing symbol")
	}
}

func TestCommonAffixes(t *testing.T) {
	tests := []struct {
		name       string
		a, b       []int
		wantPre    int
		wantSuffix int
	}{
		{name: "disjoint", a: []int{1, 2}, b: []int{3, 4}, wantPre: 0, wantSuffix: 0},
		{name: "equal", a: []int{1, 2}, b: []int{1, 2}, wantPre: 2, wantSuffix: 0},
		{name: "prefix only", a: []int{1, 2, 3}, b: []int{1, 2, 4}, wantPre: 2, wantSuffix: 0},
		{name: "suffix only", a: []int{9, 2, 3}, b: []int{8, 2, 3}, wantPre: 0, wantSuffix: 2},
		{name: "both", a: []int{1, 5, 3}, b: []int{1, 6, 3}, wantPre: 1, wantSuffix: 1},
		{name: "empty a", a: nil, b: []int{1}, wantPre: 0, wantSuffix: 0},
		{name: "a inside b", a: []int{1, 2}, b: []int{1, 9, 2}, wantPre: 1, wantSuffix: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pre, suf := commonAffixes(tt.a, tt.b)
			if pre != tt.wantPre || suf != tt.wantSuffix {
				t.Fatalf("commonAffixes(%v, %v) = (%d, %d), want (%d, %d)",
					tt.a, tt.b, pre, suf, tt.wantPre, tt.wantSuffix)
			}
		})
	}
}

func TestCommonAffixesNeverOverlap(t *testing.T) {
	// Property: prefix+suffix never exceeds the shorter length.
	f := func(raw []byte, tail []byte) bool {
		a := make([]int, len(raw))
		for i, v := range raw {
			a[i] = int(v % 3)
		}
		b := make([]int, len(tail))
		for i, v := range tail {
			b[i] = int(v % 3)
		}
		pre, suf := commonAffixes(a, b)
		min := len(a)
		if len(b) < min {
			min = len(b)
		}
		return pre+suf <= min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchKeepOrDrop: the scratch of a diff the size of an edit's gap goes
// back to its pool; that of a whole-file diff of a 32 KiB file or larger, which
// only a file with no anchor takes, does not.
func TestScratchKeepOrDrop(t *testing.T) {
	content := func(n int, edit string) []byte {
		var b bytes.Buffer
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "line %5d of a file being diffed %s\n", i, edit)
			if i%7 == 3 {
				edit = strings.ToUpper(edit)
			}
		}
		return b.Bytes()
	}
	for _, c := range []struct {
		lines int
		keep  bool
	}{{40, true}, {32 << 10 / 40, false}, {256 << 10 / 40, false}} {
		sc := new(hmScratch)
		base, target := content(c.lines, "a"), content(c.lines, "b")
		sc.nextAnchor(base, target)
		sa, sb, nsym := sc.internBoth(base, target)
		huntMcIlroyMatches(sc, sa, sb, nsym)
		size := sc.footprint()
		if got := sc.release(); got != c.keep {
			t.Errorf("%d lines: diff scratch of %d bytes pooled = %v, want %v", c.lines, size, got, c.keep)
		}
	}
}

// TestScratchReleaseDropsFileReferences: a scratch goes back to its pool
// holding no line of the files it compared — neither the last search's nor
// those of a longer search before it in the same Compute — or it would keep
// alive a file version the version store has let go of.
func TestScratchReleaseDropsFileReferences(t *testing.T) {
	rng := benchRNG(3)
	base := genFile(&rng, 32<<10)
	sc := new(hmScratch)
	anchoredOps(base, benchInplace(base, 5, 3), huntMcIlroyMatches, sc)
	if !sc.release() {
		t.Fatalf("a scratch of %d bytes was not pooled", sc.footprint())
	}
	for i, l := range sc.table.lines[:cap(sc.table.lines)] {
		if l != nil {
			t.Fatalf("intern table entry %d still holds %q", i, l)
		}
	}
	if sc.scans[0].text != nil || sc.scans[1].text != nil {
		t.Fatal("a scan still holds its file")
	}
}
