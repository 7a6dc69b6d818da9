package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func run(t *testing.T, script string, inputs map[string][]byte) Result {
	t.Helper()
	return Execute(Request{Script: []byte(script), Inputs: inputs})
}

func TestParseScript(t *testing.T) {
	cmds, err := ParseScript([]byte("# header\nwc a.dat\n\ngrep x b.dat\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 2 || cmds[0].Name != "wc" || cmds[1].Args[0] != "x" {
		t.Fatalf("cmds = %+v", cmds)
	}
}

func TestParseScriptQuotedArgs(t *testing.T) {
	cmds, err := ParseScript([]byte(`grep "two words" file.txt` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmds[0].Args[0] != "two words" {
		t.Fatalf("quoted arg = %q", cmds[0].Args[0])
	}
}

func TestParseScriptErrors(t *testing.T) {
	tests := []struct {
		name   string
		script string
	}{
		{name: "unknown command", script: "launch missiles\n"},
		{name: "empty", script: "\n# only comments\n"},
		{name: "unterminated quote", script: "grep \"oops file\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseScript([]byte(tt.script)); !errors.Is(err, ErrBadScript) {
				t.Fatalf("err = %v, want ErrBadScript", err)
			}
		})
	}
}

func TestCommandString(t *testing.T) {
	c := Command{Name: "wc", Args: []string{"a", "b"}}
	if c.String() != "wc a b" {
		t.Fatalf("String = %q", c.String())
	}
	if (Command{Name: "echo"}).String() != "echo" {
		t.Fatal("argless String wrong")
	}
}

func TestCommandsSorted(t *testing.T) {
	cmds := Commands()
	if len(cmds) < 10 {
		t.Fatalf("vocabulary too small: %v", cmds)
	}
	for i := 1; i < len(cmds); i++ {
		if cmds[i-1] >= cmds[i] {
			t.Fatalf("not sorted: %v", cmds)
		}
	}
}

func TestExecuteBasicCommands(t *testing.T) {
	inputs := map[string][]byte{
		"data": []byte("banana\napple\ncherry\napple\n"),
	}
	tests := []struct {
		name      string
		script    string
		wantOut   string
		wantInErr string
		wantExit  int32
	}{
		{name: "cat", script: "cat data\n", wantOut: "banana\napple\ncherry\napple\n"},
		{name: "wc", script: "wc data\n", wantOut: "      4       4      26 data\n"},
		{name: "grep", script: "grep an data\n", wantOut: "banana\n"},
		{name: "grep regexp", script: "grep ^a data\n", wantOut: "apple\napple\n"},
		{name: "sort", script: "sort data\n", wantOut: "apple\napple\nbanana\ncherry\n"},
		{name: "uniq after sort", script: "uniq data\n", wantOut: "banana\napple\ncherry\napple\n"},
		{name: "head", script: "head -2 data\n", wantOut: "banana\napple\n"},
		{name: "tail", script: "tail -1 data\n", wantOut: "apple\n"},
		{name: "rev", script: "rev data\n", wantOut: "apple\ncherry\napple\nbanana\n"},
		{name: "echo", script: "echo hello world\n", wantOut: "hello world\n"},
		{name: "expand", script: "expand 2 data\n", wantOut: "banana\napple\ncherry\napple\nbanana\napple\ncherry\napple\n"},
		{name: "missing file", script: "cat ghost\n", wantInErr: "no such input file", wantExit: 1},
		{name: "bad grep pattern", script: "grep ( data\n", wantInErr: "bad pattern", wantExit: 1},
		{name: "bad usage", script: "sort\n", wantInErr: "usage", wantExit: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := run(t, tt.script, inputs)
			if string(res.Stdout) != tt.wantOut {
				t.Errorf("stdout = %q, want %q", res.Stdout, tt.wantOut)
			}
			if tt.wantInErr != "" && !strings.Contains(string(res.Stderr), tt.wantInErr) {
				t.Errorf("stderr = %q, want contains %q", res.Stderr, tt.wantInErr)
			}
			if res.ExitCode != tt.wantExit {
				t.Errorf("exit = %d, want %d", res.ExitCode, tt.wantExit)
			}
		})
	}
}

func TestExecuteContinuesAfterFailure(t *testing.T) {
	res := run(t, "cat ghost\necho still here\n", nil)
	if !strings.Contains(string(res.Stdout), "still here") {
		t.Fatal("execution stopped at first failure")
	}
	if res.ExitCode != 1 {
		t.Fatalf("exit = %d, want 1", res.ExitCode)
	}
}

func TestExecuteChecksumDeterministic(t *testing.T) {
	inputs := map[string][]byte{"f": []byte("abc")}
	a := run(t, "checksum f\n", inputs)
	b := run(t, "checksum f\n", inputs)
	if !bytes.Equal(a.Stdout, b.Stdout) {
		t.Fatal("checksum not deterministic")
	}
	if !strings.Contains(string(a.Stdout), " f\n") {
		t.Fatalf("stdout = %q", a.Stdout)
	}
}

func TestExecuteMatmulDeterministic(t *testing.T) {
	a := run(t, "matmul 16 7\n", nil)
	b := run(t, "matmul 16 7\n", nil)
	if !bytes.Equal(a.Stdout, b.Stdout) {
		t.Fatal("matmul not deterministic")
	}
	c := run(t, "matmul 16 8\n", nil)
	if bytes.Equal(a.Stdout, c.Stdout) {
		t.Fatal("matmul ignores seed")
	}
	if a.CPUTime <= 0 {
		t.Fatal("matmul charged no CPU time")
	}
}

func TestExecuteMatmulLimits(t *testing.T) {
	res := run(t, "matmul 100000 1\n", nil)
	if res.ExitCode == 0 {
		t.Fatal("oversized matmul succeeded")
	}
}

func TestExecuteSleepChargesVirtualCPU(t *testing.T) {
	start := time.Now()
	res := run(t, "sleep 5s\n", nil)
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("sleep actually slept %v of wall time", wall)
	}
	if res.CPUTime != 5*time.Second {
		t.Fatalf("CPUTime = %v, want 5s", res.CPUTime)
	}
}

func TestExecuteExpandLimit(t *testing.T) {
	inputs := map[string][]byte{"big": make([]byte, 1<<20)}
	res := run(t, "expand 100 big\n", inputs)
	if res.ExitCode == 0 {
		t.Fatal("expand over the output cap succeeded")
	}
}

func TestExecuteBadScriptExit2(t *testing.T) {
	res := run(t, "not-a-command\n", nil)
	if res.ExitCode != 2 {
		t.Fatalf("exit = %d, want 2", res.ExitCode)
	}
}

func TestExecutePureFunction(t *testing.T) {
	// Same script + same inputs => identical results, the property the
	// integration tests rely on to check remote against local runs.
	inputs := map[string][]byte{"d": []byte("z\ny\nx\n")}
	script := "sort d\nwc d\nchecksum d\nmatmul 8 3\n"
	a, b := run(t, script, inputs), run(t, script, inputs)
	if !bytes.Equal(a.Stdout, b.Stdout) || !bytes.Equal(a.Stderr, b.Stderr) || a.ExitCode != b.ExitCode {
		t.Fatal("Execute is not deterministic")
	}
}

func TestInputNames(t *testing.T) {
	cmds, err := ParseScript([]byte("wc a b\ngrep pat c\nhead -3 d\nexpand 2 e\nsort a\necho hi\nmatmul 4 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	got := InputNames(cmds)
	want := []string{"a", "b", "c", "d", "e"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("InputNames = %v, want %v", got, want)
	}
}

func TestInputNamesDedupes(t *testing.T) {
	cmds, _ := ParseScript([]byte("wc a\ncat a a\n"))
	if got := InputNames(cmds); len(got) != 1 || got[0] != "a" {
		t.Fatalf("InputNames = %v, want [a]", got)
	}
}

func TestExecuteStats(t *testing.T) {
	inputs := map[string][]byte{
		"d": []byte("sample 1.5 note\nsample 2.5 note\nsample 4.0 note\n"),
	}
	res := run(t, "stats d\n", inputs)
	if res.ExitCode != 0 {
		t.Fatalf("stats failed: %s", res.Stderr)
	}
	want := "stats d: n=3 min=1.5 max=4 mean=2.66667\n"
	if string(res.Stdout) != want {
		t.Fatalf("stats = %q, want %q", res.Stdout, want)
	}
}

func TestExecuteStatsNoNumbers(t *testing.T) {
	res := run(t, "stats d\n", map[string][]byte{"d": []byte("words only\n")})
	if res.ExitCode != 0 || !strings.Contains(string(res.Stdout), "no numeric data") {
		t.Fatalf("stats = %q (exit %d)", res.Stdout, res.ExitCode)
	}
}

func TestExecuteColsum(t *testing.T) {
	inputs := map[string][]byte{
		"d": []byte("a 1 10\nb 2 20\nc 3 30\n"),
	}
	res := run(t, "colsum 2 d\ncolsum 3 d\n", inputs)
	if res.ExitCode != 0 {
		t.Fatalf("colsum failed: %s", res.Stderr)
	}
	want := "colsum 2 d: n=3 sum=6\ncolsum 3 d: n=3 sum=60\n"
	if string(res.Stdout) != want {
		t.Fatalf("colsum = %q, want %q", res.Stdout, want)
	}
}

func TestExecuteColsumErrors(t *testing.T) {
	inputs := map[string][]byte{"d": []byte("a 1\n")}
	for _, script := range []string{"colsum d\n", "colsum x d\n", "colsum 0 d\n", "colsum 2 ghost\n"} {
		if res := run(t, script, inputs); res.ExitCode == 0 {
			t.Errorf("script %q succeeded, want failure", script)
		}
	}
	// A column beyond a row's width skips that row rather than failing.
	res := run(t, "colsum 9 d\n", inputs)
	if res.ExitCode != 0 || !strings.Contains(string(res.Stdout), "n=0") {
		t.Fatalf("wide colsum = %q (exit %d)", res.Stdout, res.ExitCode)
	}
}

func TestInputNamesStatsColsum(t *testing.T) {
	cmds, err := ParseScript([]byte("stats a\ncolsum 2 b\n"))
	if err != nil {
		t.Fatal(err)
	}
	got := InputNames(cmds)
	if fmt.Sprint(got) != "[a b]" {
		t.Fatalf("InputNames = %v", got)
	}
}

func TestExecuteStallOccupiesWallClock(t *testing.T) {
	start := time.Now()
	res := run(t, "stall 50ms\n", nil)
	if res.ExitCode != 0 {
		t.Fatalf("stall failed: %s", res.Stderr)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("stall did not occupy wall-clock time")
	}
	if res.CPUTime != 50*time.Millisecond {
		t.Fatalf("CPUTime = %v", res.CPUTime)
	}
	if bad := run(t, "stall 99h\n", nil); bad.ExitCode == 0 {
		t.Fatal("excessive stall accepted")
	}
}

// TestLineCommandsGolden pins every line command's output byte for byte:
// blank lines, repeated lines, a last line without a newline, a file that is
// only newlines, and an empty file.
func TestLineCommandsGolden(t *testing.T) {
	inputs := map[string][]byte{
		"f":      []byte("b\na\n\nb\nb\nc\nunterminated"),
		"blanks": []byte("\n\n"),
		"empty":  nil,
	}
	for script, want := range map[string]string{
		"sort f":           "\na\nb\nb\nb\nc\nunterminated\n",
		"uniq f":           "b\na\n\nb\nc\nunterminated\n",
		"grep ^[bu] f":     "b\nb\nb\nunterminated\n",
		"grep ^$ f blanks": "\n\n\n",
		"head f":           "b\na\n\nb\nb\nc\nunterminated\n",
		"head -2 f":        "b\na\n",
		"tail -3 f":        "b\nc\nunterminated\n",
		"tail -0 f":        "",
		"rev f":            "unterminated\nc\nb\nb\n\na\nb\n",
		"echo a  b":        "a b\n",
		"sort blanks":      "\n\n",
		"uniq blanks":      "\n",
		"rev blanks":       "\n\n",
		"sort empty":       "",
		"rev empty":        "",
		"uniq empty":       "",
		"head empty":       "",
	} {
		res := run(t, script, inputs)
		if res.ExitCode != 0 || string(res.Stdout) != want {
			t.Errorf("%s: exit %d, stdout %q; want %q (stderr %q)", script, res.ExitCode, res.Stdout, want, res.Stderr)
		}
	}
}

// refLines is how the interpreter split an input before it indexed lines in
// place: FuzzLineCommands holds every line command to these semantics.
func refLines(content []byte) []string {
	s := strings.TrimSuffix(string(content), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// refNumericFields is numericFields over refLines and strings.Fields.
func refNumericFields(content []byte, column int) []float64 {
	var out []float64
	for _, l := range refLines(content) {
		fields := strings.Fields(l)
		if column > 0 {
			if column > len(fields) {
				continue
			}
			fields = fields[column-1 : column]
		}
		for _, f := range fields {
			if v, err := strconv.ParseFloat(f, 64); err == nil {
				out = append(out, v)
			}
		}
	}
	return out
}

// refLineCommand is cmd's stdout computed on strings, as the interpreter
// computed it before: sort.Strings for sort, MatchString for grep.
func refLineCommand(cmd Command, content []byte) string {
	ls := refLines(content)
	var out []string
	switch cmd.Name {
	case "sort":
		out = append(out, ls...)
		sort.Strings(out)
	case "uniq":
		for i, l := range ls {
			if i == 0 || l != ls[i-1] {
				out = append(out, l)
			}
		}
	case "rev":
		for i := len(ls) - 1; i >= 0; i-- {
			out = append(out, ls[i])
		}
	case "head":
		n, _ := strconv.Atoi(cmd.Args[0][1:])
		out = ls[:min(n, len(ls))]
	case "tail":
		n, _ := strconv.Atoi(cmd.Args[0][1:])
		out = ls[len(ls)-min(n, len(ls)):]
	case "grep":
		re := regexp.MustCompile(cmd.Args[0])
		for _, l := range ls {
			if re.MatchString(l) {
				out = append(out, l)
			}
		}
	}
	var b strings.Builder
	for _, l := range out {
		b.WriteString(l + "\n")
	}
	return b.String()
}

// fuzzGrow makes one line per byte b of seed: the first b%80 bytes of a
// prefix over {a, b, NUL}, then the next b%5 bytes of seed. The lines share
// long prefixes, end inside and across eight-byte windows and are many
// enough for sort to take its radix path, which short fuzz inputs seldom do.
func fuzzGrow(seed []byte) []byte {
	prefix := bytes.Repeat([]byte("ab\x00"), 27)
	var out []byte
	for i, b := range seed {
		out = append(out, prefix[:int(b)%80]...)
		rest := seed[i+1:]
		out = append(out, rest[:min(int(b)%5, len(rest))]...)
		out = append(out, '\n')
	}
	return out
}

// FuzzLineCommands checks sort, uniq, rev, head, tail and grep, and the
// numeric fields stats and colsum read, byte for byte against the string
// reference above, on the input and on a many-line file grown from it. The
// benchmark judges outputs with the same interpreter, so this is the check
// that would see a misordered sort.
func FuzzLineCommands(f *testing.F) {
	for _, in := range []string{"b\na\n\nb\nb\nc\nunterminated", "\n\n", "", "\n", "a\x00\na\n\xff\xfe\n\xc3\n"} {
		f.Add([]byte(in), uint8(2), "^[bu]")
	}
	f.Add(benchText(4, 4<<10, "shared-prefix "), uint8(7), "ab")
	f.Add(benchText(5, 2<<10, strings.Repeat("long shared prefix ", 5)), uint8(0), "^$")
	rng := rand.New(rand.NewSource(6))
	var abz []byte
	for i := 0; i < 300; i++ {
		for n := rng.Intn(21); n > 0; n-- {
			abz = append(abz, "ab\x00"[rng.Intn(3)])
		}
		abz = append(abz, '\n')
	}
	f.Add(abz, uint8(30), "a\x00")
	f.Add([]byte("1 2.5 x\n\xff 3\n 4e1\tnan \n\n-7 8 9\n"), uint8(1), "[0-9]")
	f.Fuzz(func(t *testing.T, content []byte, n uint8, pattern string) {
		if _, err := regexp.Compile(pattern); err != nil {
			pattern = "a"
		}
		count := fmt.Sprintf("-%d", n)
		for _, in := range [][]byte{content, fuzzGrow(content)} {
			for _, cmd := range []Command{
				{Name: "sort"}, {Name: "uniq"}, {Name: "rev"},
				{Name: "head", Args: []string{count}}, {Name: "tail", Args: []string{count}},
				{Name: "grep", Args: []string{pattern}},
			} {
				want := refLineCommand(cmd, in)
				cmd.Args = append(cmd.Args, "f")
				res := Execute(Request{Commands: []Command{cmd}, Inputs: map[string][]byte{"f": in}})
				if string(res.Stdout) != want || res.ExitCode != 0 {
					t.Fatalf("%s on %q: exit %d, stdout\n%q\nwant\n%q", cmd, in, res.ExitCode, res.Stdout, want)
				}
				if cmd.Name == "sort" && res.CPUTime != time.Duration(len(refLines(in)))*10*time.Microsecond {
					t.Fatalf("sort on %q charged %v", in, res.CPUTime)
				}
			}
			for _, col := range []int{0, 1, int(n%4) + 1} {
				got, want := fmt.Sprint(numericFields(in, col)), fmt.Sprint(refNumericFields(in, col))
				if got != want {
					t.Fatalf("numericFields(%q, %d) = %s, want %s", in, col, got, want)
				}
			}
		}
	})
}
