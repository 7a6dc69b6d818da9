package main

// The benchmark's own input generator. It imports nothing from the product
// (not internal/workload, not internal/experiment), so no product change can
// alter the bytes a workload feeds the system: the same seed always yields
// the same files and the same edit sequence.

// rng is splitmix64. A private generator, rather than math/rand, keeps the
// inputs independent of any library's stream.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for every n
// the benchmark uses.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Lines run 20 to 94 bytes plus the newline, 58 on average: a 256 KiB file is
// about 4.5k lines and an 8 KiB file about 140. Line i's length is the i-th
// term of a sequence that visits every length once per lineSpan lines, from
// a random starting point: every file, whatever its seed, has almost the
// same number of lines and the same mix of lengths, so bytes per edited line
// do not depend on the seed.
const (
	minLine    = 20
	lineSpan   = 75
	lineStride = 47 // coprime with lineSpan
)

const letters = "abcdefghijklmnopqrstuvwxyz"

// fillLine overwrites p with words of 2 to 9 lower-case letters separated by
// single spaces. It never writes a newline, so a file's line structure is
// unchanged by rewriting any of its lines.
func fillLine(r *rng, p []byte) {
	word := 0
	for i := range p {
		if word == 0 {
			word = 2 + r.intn(8)
			if i > 0 && i < len(p)-1 {
				p[i] = ' '
				continue
			}
		}
		p[i] = letters[r.intn(len(letters))]
		word--
	}
}

// file is one generated text file and the start offset of each of its lines
// (lines has one extra entry, the file's length). Lines never change length,
// so the index stays valid across edits and an edit costs only the bytes it
// rewrites.
type file struct {
	content []byte
	lines   []int32
}

// genFile makes a file of exactly size bytes, every line newline-terminated.
func genFile(r *rng, size int) *file {
	f := &file{content: make([]byte, size)}
	phase := r.intn(lineSpan)
	for off := 0; off < size; {
		n := minLine + (phase+len(f.lines)*lineStride)%lineSpan + 1
		// The last line absorbs the remainder, so no line is shorter than
		// minLine.
		if size-off-n < minLine+1 {
			n = size - off
		}
		f.lines = append(f.lines, int32(off))
		fillLine(r, f.content[off:off+n-1])
		f.content[off+n-1] = '\n'
		off += n
	}
	f.lines = append(f.lines, int32(size))
	return f
}

func (f *file) clone() *file {
	return &file{content: append([]byte(nil), f.content...), lines: f.lines}
}

func (f *file) numLines() int { return len(f.lines) - 1 }

// rewriteLines replaces lines [first, first+n) with fresh text of the same
// lengths.
func (f *file) rewriteLines(r *rng, first, n int) {
	for i := first; i < first+n; i++ {
		fillLine(r, f.content[f.lines[i]:f.lines[i+1]-1])
	}
}

// editRun is the longest run of consecutive lines one edit rewrites: an edit
// of n lines touches ceil(n/editRun) regions of the file, the way a user
// changes a few places rather than n unrelated lines.
const editRun = 8

// edit rewrites share of the file's lines in place (at least one line).
func (f *file) edit(r *rng, share float64) {
	n := int(share*float64(f.numLines()) + 0.5)
	if n < 1 {
		n = 1
	}
	for n > 0 {
		run := min(n, editRun)
		f.rewriteLines(r, r.intn(f.numLines()-run+1), run)
		n -= run
	}
}

// variantBlock is the unit of sharing between variants of one base, in
// lines: about 3.7 KB, a few content-defined chunks.
const variantBlock = 64

// sharedVariant returns a copy of base in which each block of variantBlock
// lines is kept with probability share and rewritten otherwise, so two
// variants of one base have about share² of their blocks in common and each
// has share of its blocks in common with the base.
func sharedVariant(r *rng, base *file, share float64) *file {
	v := base.clone()
	for first := 0; first < v.numLines(); first += variantBlock {
		if r.float() >= share {
			v.rewriteLines(r, first, min(variantBlock, v.numLines()-first))
		}
	}
	return v
}
