package main

import "testing"

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		vs   []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.99, 7},
		{ten, 0, 1},
		{ten, 0.5, 5},
		{ten, 0.51, 6},
		{ten, 0.95, 10},
		{ten, 0.9, 9},
		{ten, 1, 10},
		{[]float64{1, 2, 3}, 0.5, 2},
	} {
		if got := percentile(c.vs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.vs, c.p, got, c.want)
		}
	}
}

func TestMedianOverSegments(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{9, 1}, 5},
		{[]float64{3, 100, 1}, 3},
		{[]float64{10, 2, 8, 4}, 6},
		{[]float64{5, 1, 4, 2, 3, 1000, 0}, 3},
	} {
		in := append([]float64(nil), c.vs...)
		if got := median(c.vs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.vs, got, c.want)
		}
		for i := range in {
			if in[i] != c.vs[i] {
				t.Errorf("median reordered its argument: %v -> %v", in, c.vs)
				break
			}
		}
	}
	// One slow segment of seven moves the run's value not at all.
	segs := []*segmentResult{}
	for _, wall := range []float64{1, 1, 1, 1, 1, 1, 9} {
		segs = append(segs, &segmentResult{cycles: 100, wallS: wall})
	}
	if got := overSegments(segs, func(s *segmentResult) float64 { return float64(s.cycles) / s.wallS }); got != 100 {
		t.Errorf("median over segments = %v, want 100", got)
	}
}
