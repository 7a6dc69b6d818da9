package diff

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"testing"
)

// FuzzComputeApply is the core correctness property under arbitrary inputs:
// for every algorithm, Apply(Compute(base, target), base) == target, for the
// delta and for its wire form. Two short arbitrary inputs seldom share a line,
// let alone an anchor, so the same property is also checked on a long file
// grown from base and a structural edit of it scripted by target: the shape
// that takes the front end's walk, search, gaps and fallback.
func FuzzComputeApply(f *testing.F) {
	f.Add([]byte("a\nb\nc\n"), []byte("a\nX\nc\n"))
	f.Add([]byte(""), []byte("x"))
	f.Add([]byte("no newline"), []byte("no newline either"))
	f.Add([]byte("\n\n\n"), []byte("\n"))
	f.Add([]byte("one\ntwo\nthree\n"), []byte{1, 0, 40, 7, 2, 128, 3, 0, 3, 200, 60, 1, 1, 250, 9, 0})
	f.Add([]byte("same\n"), []byte{0, 2, 100, 30, 1, 10, 2, 3, 90, 5})
	f.Fuzz(func(t *testing.T, base, target []byte) {
		if len(base) > 1<<16 || len(target) > 1<<16 {
			return
		}
		roundTripAll(t, base, target)
		long := fuzzGrow(base, len(target)%2 == 0)
		roundTripAll(t, long, fuzzEdit(long, target))
	})
}

// fuzzGrow repeats seed's lines out to a file of some 600 lines, numbering
// each line when distinct is set (unique lines, true anchors) and leaving the
// repetition bare otherwise (every anchor a candidate for a false one).
func fuzzGrow(seed []byte, distinct bool) []byte {
	lines := SplitLines(append(bytes.Clone(seed), "\nend of seed\n"...))
	var out []byte
	for i := 0; i < 600; i++ {
		if distinct {
			out = strconv.AppendInt(out, int64(i), 10)
			out = append(out, ' ')
		}
		out = append(out, lines[i%len(lines)]...)
	}
	return out
}

// fuzzEdit applies the edit script to content. Each three script bytes are
// one edit — kind, place, extent — that deletes, inserts, rewrites or repeats
// a run of up to 64 lines; a script of odd length drops the final newline.
func fuzzEdit(content, script []byte) []byte {
	lines := SplitLines(content)
	for k := 0; k+3 <= len(script) && k < 3*32; k += 3 {
		at := int(script[k+1]) * len(lines) / 256
		n := min(int(script[k+2])%64+1, len(lines)-at)
		var repl [][]byte
		switch script[k] % 4 {
		case 0: // delete
		case 1: // insert
			n = 0
			fallthrough
		case 2: // rewrite
			for i := 0; i <= int(script[k+2])%64; i++ {
				repl = append(repl, []byte(fmt.Sprintf("edit %d line %d\n", k, i)))
			}
		case 3: // repeat the run in place: matches that cross
			repl = append(slices.Clone(lines[at:at+n]), lines[at:at+n]...)
		}
		lines = append(lines[:at:at], append(repl, lines[at+n:]...)...)
	}
	out := JoinLines(lines)
	if len(script)%2 == 1 {
		out = bytes.TrimSuffix(out, nlByte)
	}
	return out
}

// FuzzDecode explores the delta decoder with arbitrary bytes: it must
// reject or accept without panicking, and never accept-then-crash in Apply.
func FuzzDecode(f *testing.F) {
	d, _ := Compute(HuntMcIlroy, []byte("a\nb\n"), []byte("a\nc\nd\n"))
	f.Add(d.Encode())
	f.Add([]byte("SD1"))
	f.Add([]byte{})
	for _, frame := range hostileFrames(256) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		if err != nil {
			return
		}
		// Whatever decoded must apply-or-error cleanly against a few
		// bases.
		for _, base := range [][]byte{nil, []byte("a\nb\n"), bytes.Repeat([]byte("x\n"), 50)} {
			_, _ = dec.Apply(base)
		}
	})
}
