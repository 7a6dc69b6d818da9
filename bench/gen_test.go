package main

import (
	"bytes"
	"testing"
)

// runPlan steps a fresh plan n times and returns every file's final bytes
// and the sequence of files chosen.
func runPlan(w *workload, seed uint64, session, n int) ([][]byte, []int) {
	p := newPlan(w, seed, session)
	var picks []int
	for i := 0; i < n; i++ {
		data, _ := p.step()
		picks = append(picks, data)
	}
	var files [][]byte
	for _, f := range p.files {
		files = append(files, f.content)
	}
	return files, picks
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, picksA := runPlan(w, 1987, 0, 40)
		b, picksB := runPlan(w, 1987, 0, 40)
		c, _ := runPlan(w, 1988, 0, 40)
		other, _ := runPlan(w, 1987, 1, 40)
		sessionsDiffer := false
		for f := range a {
			if !bytes.Equal(a[f], b[f]) {
				t.Errorf("%s: file %d differs between two plans of one seed", w.name, f)
			}
			if bytes.Equal(a[f], c[f]) {
				t.Errorf("%s: file %d is identical under a different seed", w.name, f)
			}
			// On the shared-content workload a short file can come out the
			// same for two sessions; most must not.
			sessionsDiffer = sessionsDiffer || !bytes.Equal(a[f], other[f])
			if w.share == 0 && bytes.Equal(a[f], other[f]) {
				t.Errorf("%s: file %d is identical for two sessions", w.name, f)
			}
		}
		if !sessionsDiffer {
			t.Errorf("%s: two sessions have identical files", w.name)
		}
		for i := range picksA {
			if picksA[i] != picksB[i] {
				t.Fatalf("%s: cycle %d chose file %d, then %d, under one seed", w.name, i, picksA[i], picksB[i])
			}
		}
	}
}

func TestGenFileShape(t *testing.T) {
	for _, size := range []int{8 << 10, 64 << 10, 256 << 10, 1000, minLine + 1} {
		f := genFile(newRNG(7), size)
		if len(f.content) != size {
			t.Fatalf("size %d: got %d bytes", size, len(f.content))
		}
		if int(f.lines[len(f.lines)-1]) != size {
			t.Fatalf("size %d: line index ends at %d", size, f.lines[len(f.lines)-1])
		}
		for i := 0; i < f.numLines(); i++ {
			line := f.content[f.lines[i]:f.lines[i+1]]
			if line[len(line)-1] != '\n' || bytes.IndexByte(line[:len(line)-1], '\n') >= 0 {
				t.Fatalf("size %d: line %d is not exactly one newline-terminated line: %q", size, i, line)
			}
			if len(line)-1 < minLine && size > minLine+1 {
				t.Fatalf("size %d: line %d has %d bytes, below the minimum", size, i, len(line)-1)
			}
		}
	}
}

func TestEditIsInPlaceAndSameLength(t *testing.T) {
	r := newRNG(3)
	f := genFile(r, 64<<10)
	before := f.clone()
	f.edit(r, 0.02)
	if len(f.content) != len(before.content) {
		t.Fatalf("edit changed the length: %d -> %d", len(before.content), len(f.content))
	}
	changed := 0
	for i := 0; i < f.numLines(); i++ {
		a, b := before.content[f.lines[i]:f.lines[i+1]], f.content[f.lines[i]:f.lines[i+1]]
		if b[len(b)-1] != '\n' {
			t.Fatalf("line %d lost its newline", i)
		}
		if !bytes.Equal(a, b) {
			changed++
		}
	}
	want := int(0.02*float64(f.numLines()) + 0.5)
	// Runs may overlap, so fewer lines than asked can change; never more.
	if changed == 0 || changed > want {
		t.Fatalf("edit of %d lines changed %d", want, changed)
	}
}

func TestSharedVariantKeepsItsShare(t *testing.T) {
	base := genFile(newRNG(11), 256<<10)
	v := sharedVariant(newRNG(12), base, 0.9)
	same := 0
	for i := 0; i < base.numLines(); i++ {
		if bytes.Equal(base.content[base.lines[i]:base.lines[i+1]], v.content[v.lines[i]:v.lines[i+1]]) {
			same++
		}
	}
	if share := float64(same) / float64(base.numLines()); share < 0.8 || share > 0.97 {
		t.Fatalf("variant keeps %.2f of the base's lines, want about 0.9", share)
	}
	if len(v.content) != len(base.content) {
		t.Fatalf("variant length %d, base %d", len(v.content), len(base.content))
	}
}
