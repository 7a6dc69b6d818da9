package workload

import (
	"bytes"
	"fmt"
	"testing"

	"shadowedit/internal/diff"
	"shadowedit/internal/jobs"
)

func TestFileExactSize(t *testing.T) {
	g := NewGenerator(1)
	for _, size := range []int{1, 10, 100, 1024, 10 * 1024, 100 * 1024} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			f := g.File(size)
			if len(f) != size {
				t.Fatalf("File(%d) returned %d bytes", size, len(f))
			}
			if f[len(f)-1] != '\n' {
				t.Error("file not newline-terminated")
			}
		})
	}
}

func TestFileDeterministicBySeed(t *testing.T) {
	a := NewGenerator(42).File(4096)
	b := NewGenerator(42).File(4096)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different files")
	}
	c := NewGenerator(43).File(4096)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical files")
	}
}

func TestFileLooksLikeText(t *testing.T) {
	f := NewGenerator(7).File(8192)
	lines := bytes.Split(bytes.TrimSuffix(f, []byte("\n")), []byte("\n"))
	if len(lines) < 50 {
		t.Fatalf("only %d lines in 8K file", len(lines))
	}
	for i, l := range lines {
		if len(l) > 120 {
			t.Fatalf("line %d too long: %d bytes", i, len(l))
		}
	}
}

func TestModifyTouchesRoughlyPercent(t *testing.T) {
	g := NewGenerator(11)
	base := g.File(100 * 1024)
	for _, p := range []float64{1, 5, 10, 20, 40, 80} {
		t.Run(fmt.Sprintf("%g%%", p), func(t *testing.T) {
			mod := g.Modify(base, p, EditMixed)
			frac := ModifiedFraction(base, mod) * 100
			// The target is approximate; allow generous bounds but
			// require the right order of magnitude.
			if frac < p/3 || frac > p*3+2 {
				t.Fatalf("asked for %g%%, measured %.2f%%", p, frac)
			}
		})
	}
}

func TestModifyPreservesOriginal(t *testing.T) {
	g := NewGenerator(3)
	base := g.File(4096)
	orig := append([]byte(nil), base...)
	_ = g.Modify(base, 50, EditMixed)
	if !bytes.Equal(base, orig) {
		t.Fatal("Modify mutated its input")
	}
}

func TestModifyZeroPercentIsCopy(t *testing.T) {
	g := NewGenerator(4)
	base := g.File(1024)
	mod := g.Modify(base, 0, EditMixed)
	if !bytes.Equal(mod, base) {
		t.Fatal("Modify(0%) changed content")
	}
	mod[0] = 'X'
	if base[0] == 'X' {
		t.Fatal("Modify(0%) aliases its input")
	}
}

func TestModifyKinds(t *testing.T) {
	g := NewGenerator(5)
	base := g.File(16 * 1024)
	baseLines := bytes.Count(base, []byte("\n"))

	ins := g.Modify(base, 10, EditInsert)
	if bytes.Count(ins, []byte("\n")) <= baseLines {
		t.Error("EditInsert did not add lines")
	}
	del := g.Modify(base, 10, EditDelete)
	if bytes.Count(del, []byte("\n")) >= baseLines {
		t.Error("EditDelete did not remove lines")
	}
	rep := g.Modify(base, 10, EditReplace)
	if bytes.Count(rep, []byte("\n")) != baseLines {
		t.Error("EditReplace changed the line count")
	}
	if len(rep) == len(base) && bytes.Equal(rep, base) {
		t.Error("EditReplace changed nothing")
	}
}

func TestModifyDeltaScalesWithPercent(t *testing.T) {
	// The premise behind Figure 1: delta size grows with % modified and
	// stays far below file size for small percentages.
	g := NewGenerator(6)
	base := g.File(50 * 1024)
	var prev int
	for _, p := range []float64{1, 10, 40} {
		mod := g.Modify(base, p, EditMixed)
		d, err := diff.Compute(diff.HuntMcIlroy, base, mod)
		if err != nil {
			t.Fatal(err)
		}
		ws := d.WireSize()
		if ws <= prev {
			t.Errorf("delta size did not grow: %d bytes at %g%% (prev %d)", ws, p, prev)
		}
		prev = ws
	}
	mod := g.Modify(base, 1, EditMixed)
	d, err := diff.Compute(diff.HuntMcIlroy, base, mod)
	if err != nil {
		t.Fatal(err)
	}
	if d.WireSize() > len(base)/10 {
		t.Errorf("1%% delta is %d bytes of a %d byte file", d.WireSize(), len(base))
	}
}

func TestModifiedFractionBounds(t *testing.T) {
	g := NewGenerator(8)
	base := g.File(2048)
	if f := ModifiedFraction(base, base); f != 0 {
		t.Errorf("ModifiedFraction(x, x) = %v, want 0", f)
	}
	other := NewGenerator(9).File(2048)
	if f := ModifiedFraction(base, other); f < 0.5 {
		t.Errorf("ModifiedFraction of unrelated files = %v, want high", f)
	}
	if f := ModifiedFraction(base, nil); f != 0 {
		t.Errorf("ModifiedFraction(x, empty) = %v, want 0", f)
	}
}

func TestJobScript(t *testing.T) {
	s := JobScript("a.dat", "b.dat")
	want := "wc a.dat\nwc b.dat\nchecksum a.dat\n"
	if string(s) != want {
		t.Fatalf("JobScript = %q, want %q", s, want)
	}
	if len(JobScript()) != 0 {
		t.Fatal("JobScript() with no files should be empty")
	}
}

func TestPaperParameterSpace(t *testing.T) {
	if len(FigureSizes) != 3 || FigureSizes[2] != 500*1024 {
		t.Error("FigureSizes does not match the paper")
	}
	if len(TableSizes) != 4 || TableSizes[0] != 10*1024 {
		t.Error("TableSizes does not match the paper")
	}
	if TablePercents[0] != 1 || TablePercents[len(TablePercents)-1] != 20 {
		t.Error("TablePercents does not match the paper")
	}
}

func TestTableShape(t *testing.T) {
	g := NewGenerator(12)
	table := g.Table(50, 3)
	lines := bytes.Split(bytes.TrimSuffix(table, []byte("\n")), []byte("\n"))
	if len(lines) != 50 {
		t.Fatalf("rows = %d, want 50", len(lines))
	}
	for i, l := range lines {
		fields := bytes.Fields(l)
		if len(fields) != 4 { // label + 3 columns
			t.Fatalf("row %d has %d fields: %q", i, len(fields), l)
		}
	}
	// Deterministic per seed.
	if !bytes.Equal(NewGenerator(12).Table(50, 3), table) {
		t.Fatal("Table not deterministic")
	}
}

func TestTableFeedsStatsCommands(t *testing.T) {
	g := NewGenerator(13)
	table := g.Table(20, 2)
	res := jobsExecute(t, "stats t.dat\ncolsum 2 t.dat\n", map[string][]byte{"t.dat": table})
	if res.ExitCode != 0 {
		t.Fatalf("stats over table failed: %s", res.Stderr)
	}
	if !bytes.Contains(res.Stdout, []byte("n=40")) { // 20 rows x 2 numeric cols
		t.Fatalf("stats output: %s", res.Stdout)
	}
}

// jobsExecute runs a script through the batch executor.
func jobsExecute(t *testing.T, script string, inputs map[string][]byte) jobs.Result {
	t.Helper()
	return jobs.Execute(jobs.Request{Script: []byte(script), Inputs: inputs})
}

func TestSharedVariantRedundancy(t *testing.T) {
	common := NewGenerator(20).File(64 * 1024)
	a := NewGenerator(21).SharedVariant(common, 0.9)
	b := NewGenerator(22).SharedVariant(common, 0.9)

	// Size stays in the common content's ballpark.
	for _, v := range [][]byte{a, b} {
		if len(v) < len(common)*8/10 || len(v) > len(common)*12/10 {
			t.Fatalf("variant size %d drifted from %d", len(v), len(common))
		}
	}
	// Roughly redundancy of each variant's bytes are common lines; the two
	// variants share those lines with each other too.
	if f := ModifiedFraction(common, a); f < 0.02 || f > 0.3 {
		t.Fatalf("variant differs from common by %.2f, want ~0.1", f)
	}
	if f := ModifiedFraction(a, b); f > 0.3 {
		t.Fatalf("two variants differ by %.2f, want ~0.2 at most", f)
	}
	// Full redundancy is a byte-for-byte copy; zero shares nothing but
	// structure.
	if !bytes.Equal(NewGenerator(23).SharedVariant(common, 1), common) {
		t.Fatal("redundancy 1 must reproduce the common content")
	}
	if f := ModifiedFraction(common, NewGenerator(24).SharedVariant(common, 0)); f < 0.9 {
		t.Fatalf("redundancy 0 still shares %.2f", 1-f)
	}
	// Deterministic per seed.
	if !bytes.Equal(NewGenerator(21).SharedVariant(common, 0.9), a) {
		t.Fatal("SharedVariant not deterministic")
	}
}

// ModifiedFraction reports the fraction of bytes of b that are not part of a
// longest common subsequence with a — a measure of how much Modify actually
// changed. It is O(lines²).
func ModifiedFraction(a, b []byte) float64 {
	if len(b) == 0 {
		return 0
	}
	la, lb := splitLines(a), splitLines(b)
	common := make(map[string]int, len(la))
	for _, l := range la {
		common[string(l)]++
	}
	matched := 0
	for _, l := range lb {
		if common[string(l)] > 0 {
			common[string(l)]--
			matched += len(l)
		}
	}
	return 1 - float64(matched)/float64(len(b))
}

// JobScript returns a small job command file exercising the executor over the
// named data files — the "set of commands" a paper user submits with a job.
func JobScript(files ...string) []byte {
	var buf bytes.Buffer
	for _, f := range files {
		fmt.Fprintf(&buf, "wc %s\n", f)
	}
	if len(files) > 0 {
		fmt.Fprintf(&buf, "checksum %s\n", files[0])
	}
	return buf.Bytes()
}

// Table generates a columned numeric data file of the given shape: rows
// lines, each with a row label and cols floating-point values. The shape
// suits the jobs package's stats/colsum commands and mimics instrument or
// simulation output.
func (g *Generator) Table(rows, cols int) []byte {
	var buf bytes.Buffer
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&buf, "r%05d", r)
		for c := 0; c < cols; c++ {
			fmt.Fprintf(&buf, " %9.4f", g.rng.Float64()*1000)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
