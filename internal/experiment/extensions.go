package experiment

import (
	"context"

	"fmt"
	"io"
	"strings"

	"shadowedit/internal/client"
	"shadowedit/internal/diff"
	"shadowedit/internal/workload"

	shadow "shadowedit"
)

// ReverseShadowResult compares output delivery with and without reverse
// shadow processing (§8.3) over repeated runs of a job whose large output
// changes slightly between runs.
type ReverseShadowResult struct {
	Runs       int
	OutputSize int
	PlainBytes int64 // output payload moved without reverse shadowing
	DeltaBytes int64 // output payload moved with reverse shadowing
}

// Savings is the byte reduction factor.
func (r ReverseShadowResult) Savings() float64 {
	if r.DeltaBytes == 0 {
		return 0
	}
	return float64(r.PlainBytes) / float64(r.DeltaBytes)
}

// RunReverseShadow measures the extension: a simulation whose output is an
// expansion of its input is rerun after small input edits.
func RunReverseShadow(cfg Config, inputSize, runs int) (ReverseShadowResult, error) {
	cfg = cfg.withDefaults()
	var res ReverseShadowResult
	res.Runs = runs
	for _, wantDelta := range []bool{false, true} {
		moved, outSize, err := reverseShadowBytes(cfg, inputSize, runs, wantDelta)
		if err != nil {
			return ReverseShadowResult{}, err
		}
		res.OutputSize = outSize
		if wantDelta {
			res.DeltaBytes = moved
		} else {
			res.PlainBytes = moved
		}
	}
	return res, nil
}

func reverseShadowBytes(cfg Config, inputSize, runs int, wantDelta bool) (int64, int, error) {
	cluster, ws, err := newRig(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Close()

	environment := shadow.DefaultEnvironment("sci")
	environment.Algorithm = cfg.Algorithm
	environment.WantOutputDelta = wantDelta
	c, err := ws.ConnectSession(context.Background(), shadow.SessionConfig{Env: environment})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()

	gen := workload.NewGenerator(cfg.Seed)
	content := gen.File(inputSize)
	if err := ws.WriteFile("/u/sci/run.job", []byte("expand 4 data.dat\n")); err != nil {
		return 0, 0, err
	}
	outSize := 0
	for run := 0; run < runs; run++ {
		if err := ws.WriteFile("/u/sci/data.dat", content); err != nil {
			return 0, 0, err
		}
		job, err := c.Submit(context.Background(), "/u/sci/run.job", []string{"/u/sci/data.dat"}, shadow.SubmitOptions{})
		if err != nil {
			return 0, 0, err
		}
		rec, err := c.Wait(context.Background(), job)
		if err != nil {
			return 0, 0, err
		}
		outSize = len(rec.Stdout)
		content = gen.Modify(content, 1, workload.EditReplace)
	}
	return c.Metrics().OutputBytes, outSize, nil
}

// RenderReverseShadow prints the extension experiment.
func RenderReverseShadow(w io.Writer, r ReverseShadowResult) {
	fmt.Fprintln(w, "Reverse shadow processing (§8.3): output bytes moved over repeated runs")
	fmt.Fprintf(w, "  runs: %d, output size per run: %d bytes\n", r.Runs, r.OutputSize)
	fmt.Fprintf(w, "  without output deltas: %d bytes\n", r.PlainBytes)
	fmt.Fprintf(w, "  with output deltas:    %d bytes  (%.1fx reduction)\n", r.DeltaBytes, r.Savings())
}

// AlgorithmCell compares delta algorithms on one modification level.
type AlgorithmCell struct {
	Algorithm diff.Algorithm
	Percent   float64
	WireBytes int
	Ops       int
}

// RunAlgorithmComparison measures delta sizes for the three algorithms the
// paper discusses (§7, §8.3) across modification levels. The edited versions
// derive from one sequential generator (so they match the serial runs
// exactly); the diff computations themselves fan out across cfg.Workers.
func RunAlgorithmComparison(cfg Config, size int, percents []float64) ([]AlgorithmCell, error) {
	cfg = cfg.withDefaults()
	gen := workload.NewGenerator(cfg.Seed)
	base := gen.File(size)
	edits := make([][]byte, len(percents))
	for i, p := range percents {
		edits[i] = gen.Modify(base, p, cfg.EditKind)
	}
	algs := []diff.Algorithm{diff.HuntMcIlroy, diff.Myers, diff.TichyBlockMove}
	cells := make([]AlgorithmCell, len(percents)*len(algs))
	err := forEachCell(cfg.Workers, len(cells), func(i int) error {
		pi, ai := i/len(algs), i%len(algs)
		d, err := diff.Compute(algs[ai], base, edits[pi])
		if err != nil {
			return err
		}
		cells[i] = AlgorithmCell{
			Algorithm: algs[ai],
			Percent:   percents[pi],
			WireBytes: d.WireSize(),
			Ops:       d.OpCount(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// RenderAlgorithmComparison prints the delta-algorithm table.
func RenderAlgorithmComparison(w io.Writer, size int, cells []AlgorithmCell) {
	fmt.Fprintf(w, "Delta algorithm comparison (%s file): wire bytes (ops)\n", sizeLabel(size))
	fmt.Fprintf(w, "%-12s %16s %16s %16s\n", "% modified", "hunt-mcilroy", "myers", "tichy")
	byPercent := make(map[float64]map[diff.Algorithm]AlgorithmCell)
	var order []float64
	for _, c := range cells {
		if byPercent[c.Percent] == nil {
			byPercent[c.Percent] = make(map[diff.Algorithm]AlgorithmCell)
			order = append(order, c.Percent)
		}
		byPercent[c.Percent][c.Algorithm] = c
	}
	for _, p := range order {
		fmt.Fprintf(w, "%-12s", fmt.Sprintf("%g%%", p))
		for _, alg := range []diff.Algorithm{diff.HuntMcIlroy, diff.Myers, diff.TichyBlockMove} {
			c := byPercent[p][alg]
			fmt.Fprintf(w, " %10d (%3d)", c.WireBytes, c.Ops)
		}
		fmt.Fprintln(w)
	}
}

// CompressionCell is one cell of the compression ablation.
type CompressionCell struct {
	Size       int
	Percent    float64
	PlainTime  float64 // seconds
	ZTime      float64
	PlainBytes int64
	ZBytes     int64
}

// RunCompressionAblation re-times Figure-3 cells with the compression layer
// on and off (§8.3 "data compression techniques"). Sizes fan out across
// cfg.Workers; each cell runs its plain and compressed cycles on private
// rigs, so results stay byte-identical to a serial run.
func RunCompressionAblation(cfg Config, sizes []int, percent float64) ([]CompressionCell, error) {
	cfg = cfg.withDefaults()
	cells := make([]CompressionCell, len(sizes))
	err := forEachCell(cfg.Workers, len(sizes), func(i int) error {
		size := sizes[i]
		plainCfg := cfg
		plainCfg.Compress = false
		plain, err := RunCycle(plainCfg, size, percent)
		if err != nil {
			return err
		}
		zCfg := cfg
		zCfg.Compress = true
		z, err := RunCycle(zCfg, size, percent)
		if err != nil {
			return err
		}
		cells[i] = CompressionCell{
			Size:       size,
			Percent:    percent,
			PlainTime:  plain.STime.Seconds(),
			ZTime:      z.STime.Seconds(),
			PlainBytes: plain.ShadowBytes,
			ZBytes:     z.ShadowBytes,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// RenderCompressionAblation prints the compression ablation.
func RenderCompressionAblation(w io.Writer, percent float64, cells []CompressionCell) {
	fmt.Fprintf(w, "Compression ablation at %g%% modified: S-time and delta bytes\n", percent)
	fmt.Fprintf(w, "%-10s %12s %12s %14s %14s\n", "File Size", "plain (s)", "flate (s)", "plain bytes", "flate bytes")
	for _, c := range cells {
		fmt.Fprintf(w, "%-10s %12.2f %12.2f %14d %14d\n",
			sizeLabel(c.Size), c.PlainTime, c.ZTime, c.PlainBytes, c.ZBytes)
	}
}

// CacheSweepCell is one point of the cache-size ablation.
type CacheSweepCell struct {
	CapacityBytes int64
	FullBytes     int64
	DeltaBytes    int64
	Evictions     int64
}

// RunCacheSweep measures traffic as the server cache shrinks: with room for
// every working-set file, resubmissions are deltas; as capacity drops below
// the working set, evictions force full retransmissions (§5.1 best-effort
// caching).
func RunCacheSweep(cfg Config, fileSize, files int, capacities []int64) ([]CacheSweepCell, error) {
	cfg = cfg.withDefaults()
	out := make([]CacheSweepCell, len(capacities))
	err := forEachCell(cfg.Workers, len(capacities), func(i int) error {
		cell, err := cacheSweepOne(cfg, fileSize, files, capacities[i])
		if err != nil {
			return err
		}
		out[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func cacheSweepOne(cfg Config, fileSize, files int, capacity int64) (CacheSweepCell, error) {
	scfg := shadow.DefaultServerConfig("super")
	scfg.CacheCapacity = capacity
	cluster, err := shadow.NewCluster(shadow.ClusterConfig{Link: cfg.Link, Server: &scfg})
	if err != nil {
		return CacheSweepCell{}, err
	}
	defer cluster.Close()
	ws := cluster.NewWorkstation("ws")
	c, cork, err := connectCorked(cluster, ws, client.Config{User: "sci"})
	if err != nil {
		return CacheSweepCell{}, err
	}
	defer c.Close()

	gen := workload.NewGenerator(cfg.Seed)
	contents := make([][]byte, files)
	paths := make([]string, files)
	var script []byte
	for i := range contents {
		contents[i] = gen.File(fileSize)
		paths[i] = fmt.Sprintf("/u/sci/f%d.dat", i)
		if err := ws.WriteFile(paths[i], contents[i]); err != nil {
			return CacheSweepCell{}, err
		}
		script = append(script, []byte(fmt.Sprintf("checksum f%d.dat\n", i))...)
	}
	if err := ws.WriteFile("/u/sci/run.job", script); err != nil {
		return CacheSweepCell{}, err
	}

	// Three rounds of edit-everything-resubmit. Corked, because with the
	// cache bounded the order the files arrive in is the order they evict
	// each other in.
	for round := 0; round < 3; round++ {
		cork.cork()
		job, err := c.Submit(context.Background(), "/u/sci/run.job", paths, shadow.SubmitOptions{})
		if err != nil {
			return CacheSweepCell{}, err
		}
		if _, err := c.Wait(context.Background(), job); err != nil {
			return CacheSweepCell{}, err
		}
		for i := range contents {
			contents[i] = gen.Modify(contents[i], 2, workload.EditMixed)
			if err := ws.WriteFile(paths[i], contents[i]); err != nil {
				return CacheSweepCell{}, err
			}
		}
	}
	m := c.Metrics()
	st := cluster.Server().Cache().Stats()
	return CacheSweepCell{
		CapacityBytes: capacity,
		FullBytes:     m.FullBytes,
		DeltaBytes:    m.DeltaBytes,
		Evictions:     st.Evictions,
	}, nil
}

// RenderCacheSweep prints the cache ablation.
func RenderCacheSweep(w io.Writer, fileSize, files int, cells []CacheSweepCell) {
	fmt.Fprintf(w, "Cache-size ablation: %d files x %s, 3 edit rounds\n", files, sizeLabel(fileSize))
	fmt.Fprintf(w, "%-14s %12s %12s %10s\n", "capacity", "full bytes", "delta bytes", "evictions")
	for _, c := range cells {
		capLabel := "unbounded"
		if c.CapacityBytes > 0 {
			capLabel = sizeLabel(int(c.CapacityBytes))
		}
		fmt.Fprintf(w, "%-14s %12d %12d %10d\n", capLabel, c.FullBytes, c.DeltaBytes, c.Evictions)
	}
}

// PolicyCell compares cache eviction policies on one constrained cache.
type PolicyCell struct {
	Policy     shadow.CachePolicy
	FullBytes  int64
	DeltaBytes int64
	Evictions  int64
}

// RunCachePolicyComparison contrasts LRU with largest-first eviction under a
// mixed working set (one big file, several small ones) that does not fit the
// cache. §5.1 leaves the victim choice to the remote host ("which files
// should be removed from the cache first"); this measures what the choice
// costs. Largest-first keeps the many small files resident at the price of
// re-shipping the big one; LRU keeps whatever was touched last.
func RunCachePolicyComparison(cfg Config, capacity int64) ([]PolicyCell, error) {
	cfg = cfg.withDefaults()
	var out []PolicyCell
	for _, policy := range []shadow.CachePolicy{shadow.CacheLRU, shadow.CacheLargestFirst} {
		cell, err := cachePolicyOne(cfg, capacity, policy)
		if err != nil {
			return nil, err
		}
		out = append(out, cell)
	}
	return out, nil
}

func cachePolicyOne(cfg Config, capacity int64, policy shadow.CachePolicy) (PolicyCell, error) {
	scfg := shadow.DefaultServerConfig("super")
	scfg.CacheCapacity = capacity
	scfg.CachePolicy = policy
	cluster, err := shadow.NewCluster(shadow.ClusterConfig{Link: cfg.Link, Server: &scfg})
	if err != nil {
		return PolicyCell{}, err
	}
	defer cluster.Close()
	ws := cluster.NewWorkstation("ws")
	c, cork, err := connectCorked(cluster, ws, client.Config{User: "sci"})
	if err != nil {
		return PolicyCell{}, err
	}
	defer c.Close()

	gen := workload.NewGenerator(cfg.Seed)
	// One big file plus four small ones; each fits alone, together they
	// exceed capacity, so the policy must pick victims every round.
	names := []string{"/s1.dat", "/s2.dat", "/s3.dat", "/s4.dat", "/big.dat"}
	files := map[string][]byte{
		"/big.dat": gen.File(12 * 1024),
		"/s1.dat":  gen.File(3 * 1024),
		"/s2.dat":  gen.File(3 * 1024),
		"/s3.dat":  gen.File(3 * 1024),
		"/s4.dat":  gen.File(3 * 1024),
	}
	var paths []string
	var script []byte
	for _, p := range names {
		if err := ws.WriteFile(p, files[p]); err != nil {
			return PolicyCell{}, err
		}
		paths = append(paths, p)
		script = append(script, []byte("wc "+strings.TrimPrefix(p, "/")+"\n")...)
	}
	if err := ws.WriteFile("/run.job", script); err != nil {
		return PolicyCell{}, err
	}

	for round := 0; round < 4; round++ {
		cork.cork()
		job, err := c.Submit(context.Background(), "/run.job", paths, shadow.SubmitOptions{})
		if err != nil {
			return PolicyCell{}, err
		}
		if _, err := c.Wait(context.Background(), job); err != nil {
			return PolicyCell{}, err
		}
		for _, p := range names { // not the map: its order would reseed every edit
			files[p] = gen.Modify(files[p], 2, workload.EditMixed)
			if err := ws.WriteFile(p, files[p]); err != nil {
				return PolicyCell{}, err
			}
		}
	}
	m := c.Metrics()
	st := cluster.Server().Cache().Stats()
	return PolicyCell{
		Policy:     policy,
		FullBytes:  m.FullBytes,
		DeltaBytes: m.DeltaBytes,
		Evictions:  st.Evictions,
	}, nil
}

// RenderCachePolicyComparison prints the eviction policy comparison.
func RenderCachePolicyComparison(w io.Writer, capacity int64, cells []PolicyCell) {
	fmt.Fprintf(w, "Cache eviction policy comparison (capacity %dk, 1x12k + 4x3k working set)\n", capacity/1024)
	fmt.Fprintf(w, "%-16s %12s %12s %10s\n", "policy", "full bytes", "delta bytes", "evictions")
	for _, c := range cells {
		fmt.Fprintf(w, "%-16v %12d %12d %10d\n", c.Policy, c.FullBytes, c.DeltaBytes, c.Evictions)
	}
}

// FlowControlResult compares pull policies under a burst of notifies while
// the server is busy (§5.2: "The flow control at the remote host allows it
// to take steps to avoid overloading and overruns").
type FlowControlResult struct {
	Policy shadow.PullPolicy
	// DeferredDuringBusy counts notifies whose retrieval the policy
	// postponed while the processor was occupied.
	DeferredDuringBusy int64
	// PulledDuringBusy counts retrievals issued while busy (the overrun
	// risk the demand-driven design avoids).
	PulledDuringBusy int64
	// Completed confirms the follow-up job over all notified files still
	// ran correctly (deferral never loses updates).
	Completed bool
}

// RunFlowControl submits a wall-clock-busy job, bursts notifies at the
// server, and reads the server's pull counters while the processor is still
// occupied.
func RunFlowControl(cfg Config) ([]FlowControlResult, error) {
	cfg = cfg.withDefaults()
	var out []FlowControlResult
	for _, policy := range []shadow.PullPolicy{shadow.PullEager, shadow.PullLoadAware, shadow.PullLazy} {
		res, err := flowControlOne(cfg, policy)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func flowControlOne(cfg Config, policy shadow.PullPolicy) (FlowControlResult, error) {
	scfg := shadow.DefaultServerConfig("super")
	scfg.Pull = policy
	scfg.LoadThreshold = 1
	scfg.MaxConcurrentJobs = 1
	cluster, err := shadow.NewCluster(shadow.ClusterConfig{Link: cfg.Link, Server: &scfg})
	if err != nil {
		return FlowControlResult{}, err
	}
	defer cluster.Close()
	ws := cluster.NewWorkstation("ws")
	c, err := ws.Connect(context.Background(), "sci")
	if err != nil {
		return FlowControlResult{}, err
	}
	defer c.Close()

	// Occupy the single processor for real wall-clock time.
	if err := ws.WriteFile("/u/sci/busy.job", []byte("stall 400ms\n")); err != nil {
		return FlowControlResult{}, err
	}
	busy, err := c.Submit(context.Background(), "/u/sci/busy.job", nil, shadow.SubmitOptions{})
	if err != nil {
		return FlowControlResult{}, err
	}

	// Burst of notifies while the server is busy.
	gen := workload.NewGenerator(cfg.Seed)
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("/u/sci/n%d.dat", i)
		if err := ws.WriteFile(p, gen.File(8*1024)); err != nil {
			return FlowControlResult{}, err
		}
		if _, err := c.CommitAndNotify(p); err != nil {
			return FlowControlResult{}, err
		}
	}
	// A status round trip proves the server has processed every earlier
	// message on this connection (in-order delivery), so the counters
	// below reflect the policy's notify decisions during the busy period.
	if _, err := c.StatusAll(context.Background()); err != nil {
		return FlowControlResult{}, err
	}
	issued, deferred := cluster.Server().FlowStats()

	if _, err := c.Wait(context.Background(), busy); err != nil {
		return FlowControlResult{}, err
	}
	// Whatever the policy deferred must still arrive: submit a job over
	// all notified files and check it completes.
	script := []byte("checksum n0.dat n1.dat n2.dat n3.dat\n")
	if err := ws.WriteFile("/u/sci/sum.job", script); err != nil {
		return FlowControlResult{}, err
	}
	paths := []string{"/u/sci/n0.dat", "/u/sci/n1.dat", "/u/sci/n2.dat", "/u/sci/n3.dat"}
	job, err := c.Submit(context.Background(), "/u/sci/sum.job", paths, shadow.SubmitOptions{})
	if err != nil {
		return FlowControlResult{}, err
	}
	rec, err := c.Wait(context.Background(), job)
	if err != nil {
		return FlowControlResult{}, err
	}
	return FlowControlResult{
		Policy:             policy,
		DeferredDuringBusy: deferred,
		PulledDuringBusy:   issued,
		Completed:          rec.ExitCode == 0,
	}, nil
}

// RenderFlowControl prints the policy comparison.
func RenderFlowControl(w io.Writer, results []FlowControlResult) {
	fmt.Fprintln(w, "Flow-control ablation: 4 notifies during a busy period, single processor")
	fmt.Fprintf(w, "%-12s %18s %18s %10s\n", "policy", "pulled while busy", "deferred", "job ok")
	for _, r := range results {
		fmt.Fprintf(w, "%-12v %18d %18d %10v\n", r.Policy, r.PulledDuringBusy, r.DeferredDuringBusy, r.Completed)
	}
}
