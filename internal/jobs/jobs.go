// Package jobs implements the batch subsystem that plays the supercomputer's
// part: parsing job command files, executing their commands over submitted
// data files, and bounding concurrent execution.
//
// The paper's prototype used "a remote UNIX system" as the supercomputer and
// a job command file containing "one or more lines where each line specifies
// a command (along with its arguments) to be executed at the remote host"
// (§6.2). This package provides a deterministic, sandboxed interpreter for
// such command files: commands read only the submitted input files and write
// only to the job's stdout/stderr, so job results are a pure function of
// (script, inputs) — which the integration tests exploit by comparing remote
// results against local execution.
package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// ErrBadScript reports an unparsable or unsupported job command file.
var ErrBadScript = errors.New("jobs: bad script")

// Command is one parsed job command.
type Command struct {
	Name string
	Args []string
}

// String renders the command as typed.
func (c Command) String() string {
	if len(c.Args) == 0 {
		return c.Name
	}
	return c.Name + " " + strings.Join(c.Args, " ")
}

// knownCommands lists the interpreter's vocabulary.
var knownCommands = map[string]bool{
	"cat": true, "wc": true, "grep": true, "sort": true, "uniq": true,
	"head": true, "tail": true, "rev": true, "checksum": true,
	"echo": true, "expand": true, "matmul": true, "sleep": true,
	"stall": true, "stats": true, "colsum": true,
}

// Commands returns the interpreter's vocabulary, sorted.
func Commands() []string {
	out := make([]string, 0, len(knownCommands))
	for c := range knownCommands {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ParseScript validates a job command file and returns its commands. Blank
// lines and '#' comments are allowed. Unknown commands are rejected here, at
// submit time, so the user learns about typos before any file transfer.
func ParseScript(script []byte) ([]Command, error) {
	var cmds []Command
	for ln, raw := range strings.Split(string(script), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields, err := splitFields(line)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadScript, ln+1, err)
		}
		name := fields[0]
		if !knownCommands[name] {
			return nil, fmt.Errorf("%w: line %d: unknown command %q", ErrBadScript, ln+1, name)
		}
		cmds = append(cmds, Command{Name: name, Args: fields[1:]})
	}
	if len(cmds) == 0 {
		return nil, fmt.Errorf("%w: no commands", ErrBadScript)
	}
	return cmds, nil
}

// splitFields splits on spaces, honouring double quotes.
func splitFields(line string) ([]string, error) {
	var fields []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			fields = append(fields, cur.String())
			cur.Reset()
		}
	}
	for _, r := range line {
		switch {
		case r == '"':
			if inQuote {
				fields = append(fields, cur.String())
				cur.Reset()
			}
			inQuote = !inQuote
		case r == ' ' || r == '\t':
			if inQuote {
				cur.WriteRune(r)
			} else {
				flush()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if inQuote {
		return nil, errors.New("unterminated quote")
	}
	flush()
	if len(fields) == 0 {
		return nil, errors.New("empty command")
	}
	return fields, nil
}

// Request is one job to execute.
type Request struct {
	// Script is the job command file.
	Script []byte
	// Commands, when non-nil, is the already-parsed form of Script; Execute
	// uses it directly instead of re-parsing. Callers that validate scripts
	// at submit time (the server) pass the parse result through so each
	// distinct script is parsed once, not once per run.
	Commands []Command
	// Inputs maps the names commands use to file contents.
	Inputs map[string][]byte
}

// Result is a finished job's outcome.
type Result struct {
	Stdout   []byte
	Stderr   []byte
	ExitCode int32
	// CPUTime is the simulated compute time the job consumed; the server
	// charges it to the supercomputer's virtual clock.
	CPUTime time.Duration
}

// Execute runs a job to completion. Command failures (missing files, bad
// arguments) are reported on stderr and in the exit code; execution
// continues with the next command, like a batch stream.
func Execute(req Request) Result {
	var res Result
	cmds := req.Commands
	if cmds == nil {
		var err error
		cmds, err = ParseScript(req.Script)
		if err != nil {
			res.Stderr = []byte(err.Error() + "\n")
			res.ExitCode = 2
			return res
		}
	}
	var stdout, stderr bytes.Buffer
	exec := &execution{inputs: req.Inputs, stdout: &stdout, stderr: &stderr}
	failed := 0
	for _, cmd := range cmds {
		if err := exec.run(cmd); err != nil {
			fmt.Fprintf(&stderr, "%s: %v\n", cmd.Name, err)
			failed++
		}
	}
	res.Stdout = stdout.Bytes()
	res.Stderr = stderr.Bytes()
	res.CPUTime = exec.cpu
	if failed > 0 {
		res.ExitCode = 1
	}
	return res
}

// Limits on resource-shaped commands.
const (
	maxExpandOutput = 32 << 20
	maxMatmulN      = 512
	maxSleep        = time.Hour
)

type execution struct {
	inputs map[string][]byte
	stdout *bytes.Buffer
	stderr *bytes.Buffer
	cpu    time.Duration
}

func (e *execution) input(name string) ([]byte, error) {
	content, ok := e.inputs[name]
	if !ok {
		return nil, fmt.Errorf("no such input file %q", name)
	}
	return content, nil
}

// writeLine writes l and a newline to stdout: fmt.Fprintln's output without
// its formatting machinery, which the line commands would pay once a line.
func (e *execution) writeLine(l []byte) {
	e.stdout.Write(l)
	e.stdout.WriteByte('\n')
}

// span is one line of an input, content[start:end], without its newline.
type span struct{ start, end int }

func (sp span) len() int { return sp.end - sp.start }

// lineSpans indexes content's lines in place, for every line command. A
// final newline ends the last line rather than starting an empty one, so an
// input that is empty or only one newline has no lines.
func lineSpans(content []byte) []span {
	if n := len(content); n > 0 && content[n-1] == '\n' {
		content = content[:n-1]
	}
	if len(content) == 0 {
		return nil
	}
	out := make([]span, 0, bytes.Count(content, []byte{'\n'})+1)
	for start := 0; ; {
		i := bytes.IndexByte(content[start:], '\n')
		if i < 0 {
			return append(out, span{start, len(content)})
		}
		out = append(out, span{start, start + i})
		start += i + 1
	}
}

func (e *execution) run(cmd Command) error {
	switch cmd.Name {
	case "cat":
		return e.cat(cmd.Args)
	case "wc":
		return e.wc(cmd.Args)
	case "grep":
		return e.grep(cmd.Args)
	case "sort":
		return e.sortCmd(cmd.Args)
	case "uniq":
		return e.uniq(cmd.Args)
	case "head":
		return e.headTail(cmd.Args, true)
	case "tail":
		return e.headTail(cmd.Args, false)
	case "rev":
		return e.rev(cmd.Args)
	case "checksum":
		return e.checksum(cmd.Args)
	case "echo":
		fmt.Fprintln(e.stdout, strings.Join(cmd.Args, " "))
		return nil
	case "expand":
		return e.expand(cmd.Args)
	case "matmul":
		return e.matmul(cmd.Args)
	case "sleep":
		return e.sleep(cmd.Args)
	case "stall":
		return e.stall(cmd.Args)
	case "stats":
		return e.stats(cmd.Args)
	case "colsum":
		return e.colsum(cmd.Args)
	default:
		return fmt.Errorf("unknown command")
	}
}

func (e *execution) cat(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: cat FILE...")
	}
	for _, name := range args {
		content, err := e.input(name)
		if err != nil {
			return err
		}
		e.stdout.Write(content)
	}
	return nil
}

func (e *execution) wc(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: wc FILE...")
	}
	for _, name := range args {
		content, err := e.input(name)
		if err != nil {
			return err
		}
		nl := bytes.Count(content, []byte("\n"))
		words := len(bytes.Fields(content))
		fmt.Fprintf(e.stdout, "%7d %7d %7d %s\n", nl, words, len(content), name)
	}
	return nil
}

func (e *execution) grep(args []string) error {
	if len(args) < 2 {
		return errors.New("usage: grep PATTERN FILE...")
	}
	re, err := regexp.Compile(args[0])
	if err != nil {
		return fmt.Errorf("bad pattern: %v", err)
	}
	for _, name := range args[1:] {
		content, err := e.input(name)
		if err != nil {
			return err
		}
		for _, sp := range lineSpans(content) {
			if l := content[sp.start:sp.end]; re.Match(l) {
				e.writeLine(l)
			}
		}
	}
	return nil
}

func (e *execution) sortCmd(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: sort FILE")
	}
	content, err := e.input(args[0])
	if err != nil {
		return err
	}
	ls := lineSpans(content)
	e.cpu += time.Duration(len(ls)) * 10 * time.Microsecond
	e.stdout.Grow(len(content) + 1) // the same lines, each with its newline
	for _, r := range sortLines(content, ls) {
		sp := ls[r.line]
		e.writeLine(content[sp.start:sp.end])
	}
	return nil
}

func (e *execution) uniq(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: uniq FILE")
	}
	content, err := e.input(args[0])
	if err != nil {
		return err
	}
	e.stdout.Grow(len(content) + 1) // at most the same lines
	var prev []byte
	for i, sp := range lineSpans(content) {
		if l := content[sp.start:sp.end]; i == 0 || !bytes.Equal(l, prev) {
			e.writeLine(l)
			prev = l
		}
	}
	return nil
}

func (e *execution) headTail(args []string, head bool) error {
	n := 10
	var file string
	switch len(args) {
	case 1:
		file = args[0]
	case 2:
		if !strings.HasPrefix(args[0], "-") {
			return errors.New("usage: head|tail [-N] FILE")
		}
		v, err := strconv.Atoi(args[0][1:])
		if err != nil || v < 0 {
			return fmt.Errorf("bad count %q", args[0])
		}
		n, file = v, args[1]
	default:
		return errors.New("usage: head|tail [-N] FILE")
	}
	content, err := e.input(file)
	if err != nil {
		return err
	}
	ls := lineSpans(content)
	n = min(n, len(ls))
	if head {
		ls = ls[:n]
	} else {
		ls = ls[len(ls)-n:]
	}
	for _, sp := range ls {
		e.writeLine(content[sp.start:sp.end])
	}
	return nil
}

func (e *execution) rev(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: rev FILE")
	}
	content, err := e.input(args[0])
	if err != nil {
		return err
	}
	ls := lineSpans(content)
	e.stdout.Grow(len(content) + 1) // the same lines, each with its newline
	for i := len(ls) - 1; i >= 0; i-- {
		e.writeLine(content[ls[i].start:ls[i].end])
	}
	return nil
}

func (e *execution) checksum(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: checksum FILE...")
	}
	for _, name := range args {
		content, err := e.input(name)
		if err != nil {
			return err
		}
		sum := crc32.Checksum(content, crc32.MakeTable(crc32.Castagnoli))
		fmt.Fprintf(e.stdout, "%08x %s\n", sum, name)
	}
	return nil
}

// expand repeats a file FACTOR times — a stand-in for jobs that generate
// large output (the paper's motivation for reverse shadow processing).
func (e *execution) expand(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: expand FACTOR FILE")
	}
	factor, err := strconv.Atoi(args[0])
	if err != nil || factor < 1 {
		return fmt.Errorf("bad factor %q", args[0])
	}
	content, err := e.input(args[1])
	if err != nil {
		return err
	}
	if factor*len(content) > maxExpandOutput {
		return fmt.Errorf("output would exceed %d bytes", maxExpandOutput)
	}
	for i := 0; i < factor; i++ {
		e.stdout.Write(content)
	}
	return nil
}

// matmul multiplies two deterministic pseudo-random N×N matrices — the
// stand-in for a real scientific computation. It charges simulated CPU time
// proportional to N³.
func (e *execution) matmul(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: matmul N SEED")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 1 || n > maxMatmulN {
		return fmt.Errorf("bad dimension %q (1..%d)", args[0], maxMatmulN)
	}
	seed, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return fmt.Errorf("bad seed %q", args[1])
	}
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	var trace float64
	for i := 0; i < n; i++ {
		trace += c[i*n+i]
	}
	e.cpu += time.Duration(n*n*n) * time.Nanosecond
	fmt.Fprintf(e.stdout, "matmul n=%d seed=%d trace=%.6f\n", n, seed, trace)
	return nil
}

func (e *execution) sleep(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: sleep DURATION")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil || d < 0 {
		return fmt.Errorf("bad duration %q", args[0])
	}
	if d > maxSleep {
		return fmt.Errorf("sleep longer than %v", maxSleep)
	}
	e.cpu += d
	return nil
}

// maxStall caps the wall-clock stall command.
const maxStall = 2 * time.Second

// stall occupies the executor for real wall-clock time (unlike sleep, which
// charges only virtual time). The flow-control experiments use it to hold a
// processor busy while other protocol activity happens.
func (e *execution) stall(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: stall DURATION")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil || d < 0 {
		return fmt.Errorf("bad duration %q", args[0])
	}
	if d > maxStall {
		return fmt.Errorf("stall longer than %v", maxStall)
	}
	time.Sleep(d)
	e.cpu += d
	return nil
}

// numericFields extracts the float64 value of every whitespace-separated
// token (the fields strings.Fields would give) that parses as a number, line
// by line; with column > 0, only of each line's column-th token.
func numericFields(content []byte, column int) []float64 {
	var out []float64
	for _, sp := range lineSpans(content) {
		l := content[sp.start:sp.end]
		for col := 1; column == 0 || col <= column; col++ {
			l = bytes.TrimLeftFunc(l, unicode.IsSpace)
			end := bytes.IndexFunc(l, unicode.IsSpace)
			if end < 0 {
				end = len(l)
			}
			if end == 0 {
				break
			}
			if column == 0 || col == column {
				if v, err := strconv.ParseFloat(string(l[:end]), 64); err == nil {
					out = append(out, v)
				}
			}
			l = l[end:]
		}
	}
	return out
}

// stats summarizes the numeric tokens of a data file — the kind of
// post-processing a scientist runs on simulation output.
func (e *execution) stats(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: stats FILE")
	}
	content, err := e.input(args[0])
	if err != nil {
		return err
	}
	vals := numericFields(content, 0)
	if len(vals) == 0 {
		fmt.Fprintf(e.stdout, "stats %s: no numeric data\n", args[0])
		return nil
	}
	minV, maxV, sum := vals[0], vals[0], 0.0
	for _, v := range vals {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		sum += v
	}
	e.cpu += time.Duration(len(vals)) * time.Microsecond
	fmt.Fprintf(e.stdout, "stats %s: n=%d min=%g max=%g mean=%.6g\n",
		args[0], len(vals), minV, maxV, sum/float64(len(vals)))
	return nil
}

// colsum sums one whitespace-separated numeric column.
func (e *execution) colsum(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: colsum COLUMN FILE")
	}
	col, err := strconv.Atoi(args[0])
	if err != nil || col < 1 {
		return fmt.Errorf("bad column %q", args[0])
	}
	content, err := e.input(args[1])
	if err != nil {
		return err
	}
	vals := numericFields(content, col)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	e.cpu += time.Duration(len(vals)) * time.Microsecond
	fmt.Fprintf(e.stdout, "colsum %d %s: n=%d sum=%.6g\n", col, args[1], len(vals), sum)
	return nil
}

// InputNames returns the file names a parsed script references, in first-use
// order. The server uses it to verify a submit request supplies every file
// its script needs.
func InputNames(cmds []Command) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, cmd := range cmds {
		switch cmd.Name {
		case "cat", "wc", "checksum", "sort", "uniq", "rev", "stats":
			for _, a := range cmd.Args {
				add(a)
			}
		case "grep":
			if len(cmd.Args) > 1 {
				for _, a := range cmd.Args[1:] {
					add(a)
				}
			}
		case "head", "tail":
			if len(cmd.Args) > 0 {
				last := cmd.Args[len(cmd.Args)-1]
				if !strings.HasPrefix(last, "-") {
					add(last)
				}
			}
		case "expand", "colsum":
			if len(cmd.Args) == 2 {
				add(cmd.Args[1])
			}
		}
	}
	return out
}
