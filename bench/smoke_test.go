package main

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload end to end — one untraced and
// one traced segment of 50 cycles, and the layer replay — and checks the
// report against BENCHMARK.json: every declared metric is present under its
// declared unit, nothing failed, and the layer budget sums to one.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	start := time.Now()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Fatalf("workload %d is %q (%s) in BENCHMARK.json and %q (%s) in the program", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		res, err := runWorkload(context.Background(), w, runOptions{seed: 1987, traced: true, segments: 1, cycles: 50})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || res.attempted == 0 || res.replay.mismatches != 0 {
			t.Errorf("%s: %d of %d cycles failed, %d replay mismatches", w.name, res.failed, res.attempted, res.replay.mismatches)
		}
		if len(res.untraced) != 1 || len(res.traced) != 1 {
			t.Errorf("%s: ran %d untraced and %d traced segments, want one of each", w.name, len(res.untraced), len(res.traced))
		}

		if len(res.endToEnd) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json declares %d", w.name, len(res.endToEnd), len(spec.EndToEnd))
		}
		for _, want := range spec.EndToEnd {
			got := valueOf(res.endToEnd, want.Name)
			if got <= 0 || unitOf(res.endToEnd, want.Name) != want.Unit {
				t.Errorf("%s: %s = %v %q, want a positive value in %q", w.name, want.Name, got, unitOf(res.endToEnd, want.Name), want.Unit)
			}
		}
		if len(res.perLayer) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json declares %d", w.name, len(res.perLayer), len(spec.PerLayer))
		}
		budget := 0.0
		for _, want := range spec.PerLayer {
			if unitOf(res.perLayer, want.Name) != want.Unit {
				t.Errorf("%s: %s has unit %q, want %q", w.name, want.Name, unitOf(res.perLayer, want.Name), want.Unit)
			}
			v := valueOf(res.perLayer, want.Name)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, want.Name, v)
			}
			if strings.HasPrefix(want.Name, "budget.") {
				budget += v
			}
		}
		if math.Abs(budget-1) > 1e-9 {
			t.Errorf("%s: budget shares sum to %v, want 1", w.name, budget)
		}

		if frames := valueOf(res.endToEnd, "wire_frames_per_cycle"); frames < 8 {
			t.Errorf("%s: %v frames per cycle, below the protocol's eight", w.name, frames)
		}
		cross := valueOf(res.perLayer, "cluster.cross_owner_share")
		if w.members > 1 && (cross < 0.4 || cross > 0.6) {
			t.Errorf("%s: script and data on different members in %.2f of cycles, want 0.4 to 0.6", w.name, cross)
		}
		if w.members == 1 && cross != 0 {
			t.Errorf("%s: cross-owner share %v on a standalone server", w.name, cross)
		}
	}
	if took := time.Since(start); took > 10*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, want under 10s", took)
	}
}

func unitOf(ms []metric, name string) string {
	for _, m := range ms {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

func TestWorsening(t *testing.T) {
	for _, c := range []struct {
		a, b   float64
		better string
		want   float64
	}{
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
		{100, 90, "higher", 0.10},
		{100, 125, "higher", -0.25},
		{0, 5, "lower", 0},
	} {
		if got := worsening(c.a, c.b, c.better); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", c.a, c.b, c.better, got, c.want)
		}
	}
}
