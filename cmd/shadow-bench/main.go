// Command shadow-bench regenerates the paper's evaluation (§8.1) and the
// extension experiments (§8.3) as printed tables and series.
//
// Usage:
//
//	shadow-bench -fig 1          Figure 1: Cypress transfer times
//	shadow-bench -fig 2          Figure 2: ARPANET transfer times
//	shadow-bench -fig 3          Figure 3: speedup factors vs the paper
//	shadow-bench -fig reverse    Reverse shadow processing (output deltas)
//	shadow-bench -fig algorithms Delta algorithm comparison
//	shadow-bench -fig compress   Compression ablation
//	shadow-bench -fig flow       Flow-control (pull policy) ablation
//	shadow-bench -fig cache      Cache-size ablation
//	shadow-bench -fig load       Multi-client throughput vs job slots
//	shadow-bench -fig overlap    Background transfer hidden behind editing
//	shadow-bench -fig server     Multi-session cycle latency (virtual time)
//	shadow-bench -fig capacity   Session-capacity sweep (100..10k sessions, GOMAXPROCS curve)
//	shadow-bench -fig dedup      Chunk dedup: baseline vs chunked vs cache-pressure
//	shadow-bench -fig treesync   Workspace reconciliation: per-file vs Merkle tree walk
//	shadow-bench -fig chaos      Fault-injection gauntlet (drops/spikes/flaps)
//	shadow-bench -fig cluster    Shadow-cache cluster scaling (1/2/4 instances, virtual time)
//	shadow-bench -fig all        Everything
//
// Times are virtual seconds on the simulated link (9600 bps Cypress,
// 56 kbps ARPANET); wall-clock runtime is a few seconds for everything.
//
// The capacity, dedup, treesync and cluster figures append their cells to
// BENCH_server.json (-bench-out). Each checks its own numbers against the
// gates below and exits non-zero on a miss, so CI runs them as they are.
// Wall-clock throughput of the server on real TCP is bench/'s to measure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"shadowedit/internal/experiment"
	"shadowedit/internal/netsim"
	"shadowedit/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shadow-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("shadow-bench", flag.ContinueOnError)
	var (
		fig  = fs.String("fig", "all", "which figure/experiment to regenerate")
		seed = fs.Int64("seed", 1987, "workload seed")
		plot = fs.Bool("plot", false, "draw Figures 1-2 as ASCII plots like the paper")

		sessions = fs.Int("sessions", 8, "server and chaos figures: concurrent sessions")
		cycles   = fs.Int("cycles", 50, "server and chaos figures: cycles per session")
		benchOut = fs.String("bench-out", "BENCH_server.json", "capacity, dedup, treesync and cluster figures: JSON results file (appended; empty to skip)")

		capSessions = fs.String("cap-sessions", "100,1000,5000,10000", "capacity figure: comma-separated session counts")
		capProcs    = fs.String("cap-procs", "1,2,4,8", "capacity figure: comma-separated GOMAXPROCS values")

		treeFiles = fs.Int("tree-files", 10000, "treesync figure: workspace size in files")

		dropRate   = fs.Float64("drop", 0.05, "chaos figure: per-frame drop probability")
		spikeRate  = fs.Float64("spike", 0.05, "chaos figure: per-frame latency-spike probability")
		spikeExtra = fs.Duration("spike-extra", 20*time.Millisecond, "chaos figure: added latency per spike")
		flapPeriod = fs.Duration("flap-period", 30*time.Second, "chaos figure: virtual-time flap cycle (0 disables)")
		flapDown   = fs.Duration("flap-down", 200*time.Millisecond, "chaos figure: outage window per flap cycle")
		bounces    = fs.Int("disconnects", 1, "chaos figure: forced disconnects per session")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner := &runner{w: w, seed: *seed, plot: *plot}
	runner.server = experiment.ServerBenchConfig{Sessions: *sessions, Cycles: *cycles, Seed: *seed}
	runner.benchOut = *benchOut
	var err error
	if runner.capSessions, err = parseIntList(*capSessions); err != nil {
		return fmt.Errorf("-cap-sessions: %w", err)
	}
	if runner.capProcs, err = parseIntList(*capProcs); err != nil {
		return fmt.Errorf("-cap-procs: %w", err)
	}
	runner.treeFiles = *treeFiles
	runner.chaosCfg = experiment.ChaosConfig{
		Sessions:    *sessions,
		Cycles:      *cycles,
		Seed:        *seed,
		DropRate:    *dropRate,
		SpikeRate:   *spikeRate,
		SpikeExtra:  *spikeExtra,
		FlapPeriod:  *flapPeriod,
		FlapDown:    *flapDown,
		Disconnects: *bounces,
	}
	switch *fig {
	case "1":
		return runner.figure1()
	case "2":
		return runner.figure2()
	case "3":
		return runner.figure3()
	case "reverse":
		return runner.reverse()
	case "algorithms":
		return runner.algorithms()
	case "compress":
		return runner.compress()
	case "flow":
		return runner.flow()
	case "cache":
		return runner.cache()
	case "load":
		return runner.load()
	case "overlap":
		return runner.overlap()
	case "server":
		return runner.serverBench()
	case "capacity":
		return runner.capacity()
	case "dedup":
		return runner.dedup()
	case "treesync":
		return runner.treesync()
	case "chaos":
		return runner.chaos()
	case "cluster":
		return runner.cluster()
	case "all":
		for _, f := range []func() error{
			runner.figure1, runner.figure2, runner.figure3,
			runner.reverse, runner.algorithms, runner.compress,
			runner.flow, runner.cache, runner.load, runner.overlap,
		} {
			if err := f(); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown figure %q", *fig)
	}
}

type runner struct {
	w    io.Writer
	seed int64
	plot bool

	server      experiment.ServerBenchConfig
	chaosCfg    experiment.ChaosConfig
	capSessions []int
	capProcs    []int
	treeFiles   int
	benchOut    string
}

func (r *runner) cfg(link netsim.Spec) experiment.Config {
	return experiment.Config{Link: link, Seed: r.seed}
}

func (r *runner) figure1() error {
	fig, err := experiment.RunTransferFigure(r.cfg(netsim.Cypress),
		"Figure 1: Cypress Transfer Times (100k/200k/500k file sizes)",
		workload.FigureSizes, workload.SweepPercents)
	if err != nil {
		return err
	}
	fig.Render(r.w)
	if r.plot {
		fig.RenderPlot(r.w, 72, 22)
	}
	return nil
}

func (r *runner) figure2() error {
	fig, err := experiment.RunTransferFigure(r.cfg(netsim.ARPANET),
		"Figure 2: ARPANET Transfer Times to Univ Ill. (100k/200k/500k file sizes)",
		workload.FigureSizes, workload.SweepPercents)
	if err != nil {
		return err
	}
	fig.Render(r.w)
	if r.plot {
		fig.RenderPlot(r.w, 72, 22)
	}
	return nil
}

func (r *runner) figure3() error {
	table, err := experiment.RunSpeedupTable(r.cfg(netsim.ARPANET))
	if err != nil {
		return err
	}
	table.Render(r.w)
	return nil
}

func (r *runner) reverse() error {
	res, err := experiment.RunReverseShadow(r.cfg(netsim.ARPANET), 50*1024, 4)
	if err != nil {
		return err
	}
	experiment.RenderReverseShadow(r.w, res)
	return nil
}

func (r *runner) algorithms() error {
	const size = 100 * 1024
	cells, err := experiment.RunAlgorithmComparison(r.cfg(netsim.ARPANET), size,
		[]float64{1, 5, 10, 20, 40, 80})
	if err != nil {
		return err
	}
	experiment.RenderAlgorithmComparison(r.w, size, cells)
	return nil
}

func (r *runner) compress() error {
	cells, err := experiment.RunCompressionAblation(r.cfg(netsim.ARPANET), workload.TableSizes, 5)
	if err != nil {
		return err
	}
	experiment.RenderCompressionAblation(r.w, 5, cells)
	return nil
}

func (r *runner) flow() error {
	results, err := experiment.RunFlowControl(r.cfg(netsim.LAN))
	if err != nil {
		return err
	}
	experiment.RenderFlowControl(r.w, results)
	return nil
}

func (r *runner) load() error {
	cells, err := experiment.RunLoadSweep(r.cfg(netsim.LAN), 4, 4, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	experiment.RenderLoadSweep(r.w, cells)
	return nil
}

func (r *runner) overlap() error {
	var results []experiment.OverlapResult
	for _, size := range []int{50 * 1024, 100 * 1024} {
		res, err := experiment.RunBackgroundOverlap(r.cfg(netsim.Cypress), size)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	experiment.RenderOverlap(r.w, results)
	return nil
}

// serverBench prints the server figure: cycle-latency percentiles in virtual
// time, each session replayed alone on its own simulated LAN, so the numbers
// repeat to the last digit.
func (r *runner) serverBench() error {
	snap, err := experiment.RunVirtualLatency(r.server)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.w, "Server cycle latency, virtual time (netsim LAN, each session alone): %d sessions x %d cycles: p50 %gms, p90 %gms, p99 %gms\n",
		r.server.Sessions, r.server.Cycles, ms(snap.Quantile(0.50)), ms(snap.Quantile(0.90)), ms(snap.Quantile(0.99)))
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// record appends the rows to the trajectory file (-bench-out; empty skips).
func (r *runner) record(rows ...experiment.ServerBenchResult) error {
	if r.benchOut == "" {
		return nil
	}
	for _, res := range rows {
		if err := appendBenchRun(r.benchOut, res); err != nil {
			return fmt.Errorf("write %s: %w", r.benchOut, err)
		}
	}
	fmt.Fprintf(r.w, "recorded in %s\n", r.benchOut)
	return nil
}

// capacity runs the session-capacity sweep, printing each cell as it lands
// and appending all cells to the trajectory file.
func (r *runner) capacity() error {
	results, err := experiment.RunCapacitySweep(r.capSessions, r.capProcs, r.seed, func(res experiment.ServerBenchResult) {
		fmt.Fprintf(r.w, "%s: %d sessions @ GOMAXPROCS=%d: %.1f cycles/sec (p50 %.1fms, p99 %.1fms), %.1f goroutines/session, %.1f KB resident/session, connect+prime %.1fs\n",
			res.Label, res.Sessions, res.GoMaxProcs, res.CyclesPerSec,
			res.P50Ms, res.P99Ms, res.GoroutinesPerSession, res.ResidentKBPerSession, res.ConnectSec)
	})
	if err != nil {
		return err
	}
	if err := capacityGate(results); err != nil {
		return err
	}
	return r.record(results...)
}

// dedup runs the chunk-dedup figure (baseline, chunked, cache pressure) and
// appends all three cells to the trajectory file.
func (r *runner) dedup() error {
	fig, err := experiment.RunDedupFigure(r.seed)
	if err != nil {
		return err
	}
	fig.Render(r.w)
	if err := dedupGate(fig); err != nil {
		return err
	}
	return r.record(fig.Baseline, fig.Chunked, fig.Pressure)
}

// treesync runs the workspace-reconciliation figure (per-file vs Merkle
// tree walk) and appends both cells to the trajectory file.
func (r *runner) treesync() error {
	fig, err := experiment.RunTreeSync(r.treeFiles, r.seed)
	if err != nil {
		return err
	}
	fig.Render(r.w)
	if err := treesyncGate(fig); err != nil {
		return err
	}
	return r.record(fig.PerFile, fig.Tree)
}

// chaos runs the fault-injection gauntlet and fails the invocation when any
// cycle is lost or any delivered output mismatches its reference — so CI can
// gate on it directly.
func (r *runner) chaos() error {
	res, err := experiment.RunChaos(r.chaosCfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(r.w, res)
	if res.Failed() {
		return fmt.Errorf("chaos: %d/%d cycles verified, %d mismatches",
			res.Completed, res.Sessions*res.Cycles, res.Mismatches)
	}
	return nil
}

// cluster runs the shadow-cache cluster scaling figure (1/2/4 instances in
// virtual time) and appends every cell to the trajectory file.
func (r *runner) cluster() error {
	fig, err := experiment.RunClusterBench(r.seed)
	if err != nil {
		return err
	}
	fig.Render(r.w)
	if err := clusterGate(fig); err != nil {
		return err
	}
	return r.record(fig.Cells...)
}

// The figures' gates. A bound taken from a measurement cites it — for dedup,
// the committed BENCH_server.json rows — with the headroom CI allowed when it
// read those rows itself: 15 % below a ratio, 15 % above an allocation count.
const (
	// dedupWireFloor: dedup-baseline over dedup-chunked bytes_on_wire,
	// 3 933 459 / 632 383 = 6.22x.
	dedupWireFloor = 0.85 * 3933459 / 632383
	// dedupCacheFloor: dedup-baseline logical_cache_bytes over dedup-chunked
	// unique_cache_bytes, 786 664 / 117 321 = 6.71x.
	dedupCacheFloor = 0.85 * 786664 / 117321
	// dedupAllocCeiling: dedup-chunked allocs_per_cycle, 115.109375.
	dedupAllocCeiling = 1.15 * 115.109375

	// treesyncMessageFloor is the least message reduction the tree walk may
	// show; treesyncRoundTripCeiling bounds its synchronous exchanges.
	treesyncMessageFloor     = 10
	treesyncRoundTripCeiling = 6

	// clusterSpreadFloor bounds experiment.ClusterFigure.JobSpread from
	// below: 160 jobs on one instance, 49 on the busiest of four, 3.27x. It
	// is a count, the same for every seed (placement hashes file names, not
	// content); the headroom is for a change of ring, not for noise.
	clusterSpreadFloor = 0.85 * 160 / 49
)

// dedupGate fails when chunking stopped paying for itself, the chunked path
// allocates more per cycle, or the pressure cell stopped repairing at chunk
// granularity: eviction must cost only the chunks actually gone, never a
// whole-file retransmit.
func dedupGate(f *experiment.DedupFigure) error {
	switch {
	case f.WireReduction() < dedupWireFloor:
		return fmt.Errorf("dedup: wire reduction %.2fx below the %.2fx floor", f.WireReduction(), dedupWireFloor)
	case f.CacheReduction() < dedupCacheFloor:
		return fmt.Errorf("dedup: cache reduction %.2fx below the %.2fx floor", f.CacheReduction(), dedupCacheFloor)
	case f.Chunked.AllocsPerCycle > dedupAllocCeiling:
		return fmt.Errorf("dedup: chunked cell allocates %.1f per cycle, over the %.1f ceiling", f.Chunked.AllocsPerCycle, dedupAllocCeiling)
	case f.Pressure.CacheEvictions == 0:
		return fmt.Errorf("dedup: pressure cell recorded no evictions — capacity %d did not bind", f.Pressure.CacheCapacity)
	case f.Pressure.FullRetransmits > 0:
		return fmt.Errorf("dedup: pressure cell fell back to %d whole-file retransmits", f.Pressure.FullRetransmits)
	}
	return nil
}

// treesyncGate fails when the tree walk stopped being O(changed): too few
// messages saved, no time saved, or too many round trips.
func treesyncGate(f *experiment.TreeSyncFigure) error {
	switch {
	case f.MessageReduction() < treesyncMessageFloor:
		return fmt.Errorf("treesync: tree walk cut messages only %.1fx (%d -> %d), need >= %dx",
			f.MessageReduction(), f.PerFile.WireMessages, f.Tree.WireMessages, treesyncMessageFloor)
	case f.Tree.SyncVirtualMs >= f.PerFile.SyncVirtualMs:
		return fmt.Errorf("treesync: tree sync was not faster (%.1fms vs %.1fms per-file)",
			f.Tree.SyncVirtualMs, f.PerFile.SyncVirtualMs)
	case f.Tree.SyncRoundTrips > treesyncRoundTripCeiling:
		return fmt.Errorf("treesync: tree walk needed %d round trips, at most %d allowed",
			f.Tree.SyncRoundTrips, treesyncRoundTripCeiling)
	}
	return nil
}

// capacityGate fails when a cell measured no per-session goroutines: the
// footprint sample missed the connected fleet.
func capacityGate(cells []experiment.ServerBenchResult) error {
	for _, c := range cells {
		if c.GoroutinesPerSession <= 0 {
			return fmt.Errorf("capacity: %s cell at %d sessions measured %.1f goroutines per session",
				c.Label, c.Sessions, c.GoroutinesPerSession)
		}
	}
	return nil
}

// clusterGate fails when the largest cell did not peer, or placement left its
// busiest member too large a share of the jobs.
func clusterGate(f experiment.ClusterFigure) error {
	last := f.Cells[len(f.Cells)-1]
	switch {
	case last.PeerForwards == 0:
		return fmt.Errorf("cluster: %s recorded no peer forwards", last.Label)
	case f.JobSpread() < clusterSpreadFloor:
		return fmt.Errorf("cluster: job spread %.2fx below the %.2fx floor", f.JobSpread(), clusterSpreadFloor)
	}
	return nil
}

// benchFile is the BENCH_server.json layout: one run appended per invocation.
type benchFile struct {
	Runs []experiment.ServerBenchResult `json:"runs"`
}

func appendBenchRun(path string, res experiment.ServerBenchResult) error {
	var file benchFile
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &file) // a corrupt file starts fresh
	}
	file.Runs = append(file.Runs, res)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseIntList parses "100,1000,5000" into ints.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func (r *runner) cache() error {
	const fileSize, files = 16 * 1024, 4
	cells, err := experiment.RunCacheSweep(r.cfg(netsim.LAN), fileSize, files,
		[]int64{0, 256 * 1024, 64 * 1024, 32 * 1024, 16 * 1024})
	if err != nil {
		return err
	}
	experiment.RenderCacheSweep(r.w, fileSize, files, cells)
	fmt.Fprintln(r.w)
	policies, err := experiment.RunCachePolicyComparison(r.cfg(netsim.LAN), 20*1024)
	if err != nil {
		return err
	}
	experiment.RenderCachePolicyComparison(r.w, 20*1024, policies)
	return nil
}
