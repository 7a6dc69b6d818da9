package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
)

// metric is one named measurement with its unit. samples is how many values
// stand behind it (latency samples for a percentile, segments for a median
// over segments); 0 means it is a single reading.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples,omitempty"`
}

// minSegments is the least number of untraced segments a run's medians
// stand on, however short --seconds is. nominalSegmentSeconds is what one
// segment was sized to take at the commit that added the benchmark.
const (
	minSegments           = 5
	nominalSegmentSeconds = 3.0
)

// segmentsFor turns the asked-for run length into a segment count. The count
// depends on nothing measured, so a given --seconds does the same work on
// every commit and the counted metrics repeat exactly; the run takes about
// that long at the speed the cycle counts were sized for.
func segmentsFor(seconds float64) int {
	return max(minSegments, int(seconds/nominalSegmentSeconds+0.5))
}

// runOptions selects what one workload run does.
type runOptions struct {
	seed    int64
	seconds float64
	// traced adds the traced segments and the layer replay (--trace 1); the
	// end-to-end numbers always come from the untraced segments.
	traced bool
	// segments and cycles, when nonzero, replace segmentsFor(seconds) and
	// the workload's cycle count. Only the tests set them: the command line
	// always runs the workload as the table defines it.
	segments, cycles int
}

// runResult is one workload run: the per-segment results and the medians
// over them.
type runResult struct {
	workload  *workload
	cycles    int // measured cycles per session per segment
	untraced  []*segmentResult
	traced    []*segmentResult
	replay    *replayResult
	attempted int
	failed    int
	endToEnd  []metric
	perLayer  []metric
}

// runWorkload runs w's segments in this process: segmentsFor(opts.seconds)
// untraced ones, or, with opts.traced, three untraced and two traced ones
// and then the layer replay.
func runWorkload(ctx context.Context, w *workload, opts runOptions) (*runResult, error) {
	res := &runResult{workload: w, cycles: w.cycles}
	if opts.cycles > 0 {
		res.cycles = opts.cycles
	}
	segment := func(k int, traced bool) error {
		seg, err := runSegment(ctx, w, segmentSeed(opts.seed, k), res.cycles, traced)
		if err != nil {
			return fmt.Errorf("%s segment %d: %w", w.name, k, err)
		}
		res.attempted += seg.attempted
		res.failed += seg.failed
		if traced {
			res.traced = append(res.traced, seg)
		} else {
			res.untraced = append(res.untraced, seg)
		}
		// Hand the torn-down deployment's memory back before the next one
		// grows, so peak resident memory is one segment's, however many
		// segments the run has time for.
		debug.FreeOSMemory()
		return nil
	}

	var pattern []bool // per segment, whether it is traced
	if opts.traced {
		// Alternating, so that drift in the machine's speed falls on both
		// kinds alike.
		pattern = []bool{false, true, false, true, false}
		if opts.segments > 0 {
			pattern = pattern[:min(len(pattern), 2*opts.segments)]
		}
	} else {
		n := opts.segments
		if n == 0 {
			n = segmentsFor(opts.seconds)
		}
		pattern = make([]bool, n)
	}
	for k, traced := range pattern {
		if err := segment(k, traced); err != nil {
			return nil, err
		}
	}
	if opts.traced {
		res.replay = replayLayers(w, segmentSeed(opts.seed, 0))
	}
	res.endToEnd = endToEndMetrics(res.untraced)
	if opts.traced {
		res.perLayer = perLayerMetrics(res)
	}
	return res, nil
}

// overSegments returns the median over segments of f.
func overSegments(segs []*segmentResult, f func(*segmentResult) float64) float64 {
	vs := make([]float64, len(segs))
	for i, s := range segs {
		vs[i] = f(s)
	}
	return median(vs)
}

func perCycle(total float64, s *segmentResult) float64 { return total / float64(s.cycles) }

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEndMetrics computes the metrics a user of the system would see, each
// the median over the untraced segments of a value computed on one segment
// alone. Their names and units are the ones BENCHMARK.json declares.
func endToEndMetrics(segs []*segmentResult) []metric {
	n := len(segs)
	samples := 0
	for _, s := range segs {
		samples += s.cycles
	}
	return []metric{
		{"setup_s", "s", overSegments(segs, func(s *segmentResult) float64 { return s.setupS }), n},
		{"cycles_per_s", "1/s", overSegments(segs, func(s *segmentResult) float64 { return float64(s.cycles) / s.wallS }), n},
		{"cycle_p50_ms", "ms", overSegments(segs, func(s *segmentResult) float64 { return percentile(s.latenciesMs, 0.50) }), samples},
		{"cycle_p95_ms", "ms", overSegments(segs, func(s *segmentResult) float64 { return percentile(s.latenciesMs, 0.95) }), samples},
		{"cpu_ms_per_cycle", "ms", overSegments(segs, func(s *segmentResult) float64 { return perCycle(s.cpuS*1000, s) }), n},
		{"wire_bytes_per_cycle", "B", overSegments(segs, func(s *segmentResult) float64 { return perCycle(float64(s.wire.bytes()), s) }), n},
		{"wire_frames_per_cycle", "count", overSegments(segs, func(s *segmentResult) float64 { return perCycle(float64(s.wire.frames()), s) }), n},
		{"retained_kb_per_cycle", "KiB", overSegments(segs, func(s *segmentResult) float64 { return perCycle(float64(s.retainedBytes)/1024, s) }), n},
		// One reading for the process, taken once every segment has run.
		{"peak_rss_mb", "MiB", peakRSSMB(), 0},
	}
}

// stamp records what a result was measured on, so two results can be told
// comparable or not.
type stamp struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Kernel     string         `json:"kernel"`
	Link       string         `json:"link"`
	Seed       int64          `json:"seed"`
	Segments   map[string]int `json:"segments"`
	Cycles     map[string]int `json:"cycles_per_session_per_segment"`
}

func newStamp(root string, seed int64) stamp {
	return stamp{
		Commit:     gitCommit(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     kernelRelease(),
		Link:       "loopback TCP (127.0.0.1), not a real link",
		Seed:       seed,
		Segments:   map[string]int{},
		Cycles:     map[string]int{},
	}
}
