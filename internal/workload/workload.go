// Package workload generates the synthetic editing workloads used by the
// experiments. The paper evaluates with "files of different sizes (ranging
// from 10K to 500K bytes)" where "the amount of text modified varied from 1%
// of the text to 80% of the text" between submissions. This package produces
// deterministic, seedable files of an exact byte size and applies edits that
// touch a requested percentage of the bytes, mimicking a scientist revising
// program and data files between runs.
package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
)

// Paper parameter space: file sizes and modification percentages used in
// Figures 1–3.
var (
	// FigureSizes are the file sizes plotted in Figures 1 and 2.
	FigureSizes = []int{100 * 1024, 200 * 1024, 500 * 1024}
	// TableSizes are the file sizes tabulated in Figure 3.
	TableSizes = []int{10 * 1024, 50 * 1024, 100 * 1024, 500 * 1024}
	// SweepPercents are the modification percentages swept in Figures 1–2.
	SweepPercents = []float64{1, 5, 10, 20, 40, 60, 80}
	// TablePercents are the modification percentages of Figure 3.
	TablePercents = []float64{1, 5, 10, 20}
)

// Generator produces deterministic synthetic files and edits.
type Generator struct {
	rng *rand.Rand
	// arena backs the lines a single Modify builds; join copies them into
	// the returned file, so the arena is recycled wholesale on the next
	// Modify instead of allocating per edited line.
	arena []byte
}

// NewGenerator returns a generator seeded for reproducible output.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// words is the vocabulary for synthetic "scientific" text: plausible tokens
// from a numerical program and its data.
var words = []string{
	"velocity", "pressure", "gradient", "tensor", "iterate", "converge",
	"matrix", "eigenvalue", "boundary", "mesh", "node", "flux", "solver",
	"residual", "epsilon", "delta", "alpha", "beta", "gamma", "lambda",
	"0.001", "1.5e-6", "42", "3.14159", "grid(i,j)", "call", "subroutine",
	"do", "continue", "end", "real*8", "integer", "dimension", "common",
}

// File generates a text file of exactly size bytes made of newline-terminated
// lines of space-separated tokens (roughly 40–70 bytes per line, like source
// code or columned data).
func (g *Generator) File(size int) []byte {
	var buf bytes.Buffer
	buf.Grow(size + 80)
	ln := 0
	for buf.Len() < size {
		ln++
		fmt.Fprintf(&buf, "%05d", ln)
		target := 40 + g.rng.Intn(31)
		for {
			w := words[g.rng.Intn(len(words))]
			if buf.Len()+len(w)+2 >= size {
				break
			}
			lineLen := buf.Len() - lineStart(&buf)
			if lineLen+len(w)+1 > target {
				break
			}
			buf.WriteByte(' ')
			buf.WriteString(w)
		}
		buf.WriteByte('\n')
	}
	out := buf.Bytes()
	if len(out) > size {
		out = out[:size]
		// Keep the invariant that the file is newline-terminated so
		// line-oriented edits behave uniformly.
		out[size-1] = '\n'
	}
	return out
}

func lineStart(buf *bytes.Buffer) int {
	b := buf.Bytes()
	i := bytes.LastIndexByte(b, '\n')
	return i + 1
}

// EditKind selects the mix of edit operations Modify applies.
type EditKind int

// Edit mixes.
const (
	// EditReplace rewrites lines in place (same line count).
	EditReplace EditKind = iota + 1
	// EditMixed applies a mix of replacements, insertions and deletions,
	// the realistic case for an editing session.
	EditMixed
	// EditInsert only inserts new lines.
	EditInsert
	// EditDelete only deletes lines.
	EditDelete
)

// Modify returns an edited copy of content in which approximately percent% of
// the bytes are affected, emulating one editing session. Edits cluster into
// contiguous runs (as human edits do) spread across the file. The original is
// not modified.
func (g *Generator) Modify(content []byte, percent float64, kind EditKind) []byte {
	g.arena = g.arena[:0]
	lines := splitLines(content)
	if len(lines) == 0 || percent <= 0 {
		return append([]byte(nil), content...)
	}
	budget := int(float64(len(content)) * percent / 100)
	if budget <= 0 {
		budget = 1
	}

	out := make([][]byte, len(lines))
	copy(out, lines)
	spent := 0
	guard := 0
	for spent < budget && guard < 10*len(lines)+100 {
		guard++
		// Pick a cluster of 1–8 lines at a random position.
		runLen := 1 + g.rng.Intn(8)
		if runLen > len(out) {
			runLen = len(out)
		}
		pos := 0
		if len(out) > runLen {
			pos = g.rng.Intn(len(out) - runLen)
		}
		op := kind
		if kind == EditMixed {
			switch g.rng.Intn(10) {
			case 0:
				op = EditDelete
			case 1, 2:
				op = EditInsert
			default:
				op = EditReplace
			}
		}
		switch op {
		case EditReplace:
			for i := pos; i < pos+runLen; i++ {
				nl := g.editedLine(out[i])
				spent += len(nl)
				out[i] = nl
			}
		case EditInsert:
			ins := make([][]byte, runLen)
			for i := range ins {
				ins[i] = g.freshLine()
				spent += len(ins[i])
			}
			out = append(out[:pos], append(ins, out[pos:]...)...)
		case EditDelete:
			if len(out) <= runLen {
				continue
			}
			for i := pos; i < pos+runLen; i++ {
				spent += len(out[i])
			}
			out = append(out[:pos], out[pos+runLen:]...)
		}
	}
	return join(out)
}

// editedLine returns a changed version of a line, preserving its rough shape.
// The tag is formatted by hand — byte-identical to the former
// fmt.Sprintf("~v%04d", n) but without its allocations, and drawing the RNG
// exactly once keeps every seeded workload's output unchanged.
func (g *Generator) editedLine(line []byte) []byte {
	nl := g.carve(len(line))
	copy(nl, line)
	// Tweak a token region deterministically per call.
	var tag [6]byte
	tag[0], tag[1] = '~', 'v'
	putDigits4(tag[2:], g.rng.Intn(10000))
	if len(nl) > len(tag)+1 {
		copy(nl[len(nl)-1-len(tag):len(nl)-1], tag[:])
	} else {
		nl = append(tag[:], '\n')
	}
	return nl
}

// carve returns an n-byte slice out of the Modify arena, growing it in
// chunks; carved lines stay valid until the next Modify call resets it.
func (g *Generator) carve(n int) []byte {
	if cap(g.arena)-len(g.arena) < n {
		size := 64 << 10
		if n > size {
			size = n
		}
		g.arena = make([]byte, 0, size)
	}
	off := len(g.arena)
	g.arena = g.arena[:off+n]
	return g.arena[off : off+n : off+n]
}

// freshLine returns a brand-new line. Formatting is by hand but draws the
// RNG in the same order as the former fmt-based version, so seeded output is
// byte-identical; the line is built in a single pre-sized allocation.
func (g *Generator) freshLine() []byte {
	// Worst case: "+new" + 4 digits + 7 tokens of <= 10 bytes each plus a
	// space, and the newline — comfortably under 96 bytes, so the build
	// buffer stays on the stack and the line lands in the arena.
	var sbuf [96]byte
	line := append(sbuf[:0], "+new"...)
	var d [4]byte
	putDigits4(d[:], g.rng.Intn(10000))
	line = append(line, d[:]...)
	for i, n := 0, 3+g.rng.Intn(5); i < n; i++ {
		line = append(line, ' ')
		line = append(line, words[g.rng.Intn(len(words))]...)
	}
	line = append(line, '\n')
	out := g.carve(len(line))
	copy(out, line)
	return out
}

// putDigits4 writes v (0..9999) as four zero-padded decimal digits.
func putDigits4(dst []byte, v int) {
	dst[0] = byte('0' + v/1000%10)
	dst[1] = byte('0' + v/100%10)
	dst[2] = byte('0' + v/10%10)
	dst[3] = byte('0' + v%10)
}

// SharedVariant returns one user's copy of common content: the file is cut
// into line-aligned blocks of roughly blockLen bytes, and each block is kept
// verbatim with probability redundancy or replaced by freshly generated lines
// of similar length otherwise. Variants produced by different generators from
// the same common content therefore share ~redundancy of their bytes block
// for block — the cross-user redundancy profile of a community editing the
// same source tree, which is what sub-file deduplication exploits. Replaced
// blocks keep their byte budget within a line, so variants stay close to
// common's size.
func (g *Generator) SharedVariant(common []byte, redundancy float64) []byte {
	const blockLen = 2048
	lines := splitLines(common)
	out := make([]byte, 0, len(common)+256)
	i := 0
	for i < len(lines) {
		// Gather one block of whole lines.
		blockStart := i
		blockBytes := 0
		for i < len(lines) && blockBytes < blockLen {
			blockBytes += len(lines[i])
			i++
		}
		if g.rng.Float64() < redundancy {
			for _, l := range lines[blockStart:i] {
				out = append(out, l...)
			}
			continue
		}
		// Private block: fresh lines totalling about the same bytes, so the
		// variant's size tracks the common content's.
		g.arena = g.arena[:0]
		for spent := 0; spent < blockBytes; {
			l := g.freshLine()
			spent += len(l)
			out = append(out, l...)
		}
	}
	return out
}

func splitLines(content []byte) [][]byte {
	if len(content) == 0 {
		return nil
	}
	// Count lines first so one allocation fits.
	n := bytes.Count(content, []byte{'\n'})
	if content[len(content)-1] != '\n' {
		n++
	}
	lines := make([][]byte, 0, n)
	for len(content) > 0 {
		i := bytes.IndexByte(content, '\n')
		if i < 0 {
			lines = append(lines, content)
			break
		}
		lines = append(lines, content[:i+1])
		content = content[i+1:]
	}
	return lines
}

func join(lines [][]byte) []byte {
	total := 0
	for _, l := range lines {
		total += len(l)
	}
	out := make([]byte, 0, total)
	for _, l := range lines {
		out = append(out, l...)
	}
	return out
}

// MonorepoFile is one file of a generated source tree: its slash path
// relative to the tree root, and its content.
type MonorepoFile struct {
	Path    string
	Content []byte
}

// Monorepo generates a source tree of n files of the given size, laid out as
// nested packages ("src/pkg042/f03.f") of about twenty files each — the
// shape of a large shared codebase whose sparse edits directory
// reconciliation is built for. Output is deterministic per generator seed.
// The method draws the RNG only through File, so it can be added to a seeded
// workload without perturbing other draws only if called in a fixed order,
// like every other generator method.
func (g *Generator) Monorepo(n, fileSize int) []MonorepoFile {
	const perPkg = 20
	files := make([]MonorepoFile, n)
	for i := range files {
		files[i] = MonorepoFile{
			Path:    fmt.Sprintf("src/pkg%03d/f%02d.f", i/perPkg, i%perPkg),
			Content: g.File(fileSize),
		}
	}
	return files
}

// SparseEdit picks k distinct file indices out of n and returns them sorted —
// the files one editing session touches in a monorepo. Deterministic per
// generator state.
func (g *Generator) SparseEdit(n, k int) []int {
	if k > n {
		k = n
	}
	picked := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		i := g.rng.Intn(n)
		if !picked[i] {
			picked[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
