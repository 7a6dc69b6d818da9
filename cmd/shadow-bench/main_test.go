package main

import (
	"bytes"
	"strings"
	"testing"

	"shadowedit/internal/experiment"
)

func TestUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "99"}, &buf); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFlowFigureRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "flow"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"eager", "lazy", "load-aware"} {
		if !strings.Contains(out, want) {
			t.Fatalf("flow output missing %q:\n%s", want, out)
		}
	}
}

func TestAlgorithmsFigureRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "algorithms"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hunt-mcilroy") {
		t.Fatalf("algorithms output:\n%s", buf.String())
	}
}

func TestFigure3Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure grid")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fig", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Speedup Factor", "500k", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 3 output missing %q:\n%s", want, out)
		}
	}
}

func TestReverseFigureRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "reverse"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reduction") {
		t.Fatalf("reverse output:\n%s", buf.String())
	}
}

func TestCacheFigureRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "cache"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"unbounded", "largest-first"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cache output missing %q:\n%s", want, out)
		}
	}
}

func TestLoadFigureRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "load"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "jobs/sec") {
		t.Fatalf("load output:\n%s", buf.String())
	}
}

func TestCompressFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("compression ablation sweeps four sizes")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fig", "compress"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "flate") {
		t.Fatalf("compress output:\n%s", buf.String())
	}
}

func TestFigure1WithPlot(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fig", "1", "-plot"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E-time") || !strings.Contains(out, "S-time 100k") {
		t.Fatalf("figure 1 plot output:\n%s", out)
	}
}

// TestGatesAtTheirBounds feeds each figure's gate one result just inside a
// bound, which must pass, and one just outside, which must fail: a bound
// typed wrong fails here, not in review.
func TestGatesAtTheirBounds(t *testing.T) {
	const eps = 0.01
	dedup := func(edit func(f *experiment.DedupFigure)) func() error {
		return func() error {
			// Within every bound: 6.0x on the wire, 6.0x in the cache.
			f := &experiment.DedupFigure{
				Baseline: experiment.ServerBenchResult{BytesOnWire: 6000, LogicalCacheBytes: 6000},
				Chunked:  experiment.ServerBenchResult{BytesOnWire: 1000, UniqueCacheBytes: 1000, AllocsPerCycle: 100},
				Pressure: experiment.ServerBenchResult{CacheEvictions: 1},
			}
			edit(f)
			return dedupGate(f)
		}
	}
	treesync := func(messages, roundTrips int64, treeMs float64) func() error {
		return func() error {
			return treesyncGate(&experiment.TreeSyncFigure{
				PerFile: experiment.ServerBenchResult{WireMessages: 1000 * messages, SyncVirtualMs: 100},
				Tree:    experiment.ServerBenchResult{WireMessages: 1000, SyncRoundTrips: int(roundTrips), SyncVirtualMs: treeMs},
			})
		}
	}
	capacity := func(goroutines float64) func() error {
		return func() error {
			return capacityGate([]experiment.ServerBenchResult{{GoroutinesPerSession: 4}, {GoroutinesPerSession: goroutines}})
		}
	}
	cluster := func(forwards int64, busiest int) func() error {
		return func() error {
			return clusterGate(experiment.ClusterFigure{Cells: []experiment.ServerBenchResult{
				{BusiestMemberJobs: 160},
				{BusiestMemberJobs: busiest, PeerForwards: forwards},
			}})
		}
	}
	// The most jobs the busiest member may run, and the most chunked wire and
	// cache bytes a 6000-byte baseline allows.
	spread, wire, cache := clusterSpreadFloor, dedupWireFloor, dedupCacheFloor
	busiestMax, wireMax, cacheMax := int(160/spread), int64(6000/wire), int64(6000/cache)
	for _, tt := range []struct {
		name           string
		inside, beyond func() error
	}{
		{"dedup wire reduction",
			dedup(func(f *experiment.DedupFigure) { f.Chunked.BytesOnWire = wireMax }),
			dedup(func(f *experiment.DedupFigure) { f.Chunked.BytesOnWire = wireMax + 1 })},
		{"dedup cache reduction",
			dedup(func(f *experiment.DedupFigure) { f.Chunked.UniqueCacheBytes = cacheMax }),
			dedup(func(f *experiment.DedupFigure) { f.Chunked.UniqueCacheBytes = cacheMax + 1 })},
		{"dedup chunked allocations",
			dedup(func(f *experiment.DedupFigure) { f.Chunked.AllocsPerCycle = dedupAllocCeiling - eps }),
			dedup(func(f *experiment.DedupFigure) { f.Chunked.AllocsPerCycle = dedupAllocCeiling + eps })},
		{"dedup pressure evictions",
			dedup(func(f *experiment.DedupFigure) { f.Pressure.CacheEvictions = 1 }),
			dedup(func(f *experiment.DedupFigure) { f.Pressure.CacheEvictions = 0 })},
		{"dedup pressure retransmits",
			dedup(func(f *experiment.DedupFigure) { f.Pressure.FullRetransmits = 0 }),
			dedup(func(f *experiment.DedupFigure) { f.Pressure.FullRetransmits = 1 })},
		{"treesync messages", treesync(treesyncMessageFloor, 2, 10), treesync(treesyncMessageFloor-1, 2, 10)},
		{"treesync time", treesync(20, 2, 99.9), treesync(20, 2, 100)},
		{"treesync round trips", treesync(20, treesyncRoundTripCeiling, 10), treesync(20, treesyncRoundTripCeiling+1, 10)},
		{"capacity goroutines", capacity(eps), capacity(0)},
		{"cluster peer forwards", cluster(1, busiestMax), cluster(0, busiestMax)},
		{"cluster job spread", cluster(1, busiestMax), cluster(1, busiestMax+1)},
	} {
		if err := tt.inside(); err != nil {
			t.Errorf("%s: just inside the bound failed: %v", tt.name, err)
		}
		if err := tt.beyond(); err == nil {
			t.Errorf("%s: just outside the bound passed", tt.name)
		}
	}
}
