// Server throughput benchmark: K concurrent sessions driving the full
// notify→pull→delta→job→output cycle against one server, measuring
// wall-clock cycle throughput and latency percentiles. Unlike the paper
// figures (virtual seconds on simulated links), this benchmark measures the
// server *implementation* — lock contention, syscalls, allocation — so the
// perf trajectory of the concurrent server core is tracked run over run in
// BENCH_server.json.
package experiment

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"shadowedit/internal/client"
	"shadowedit/internal/metrics"
	"shadowedit/internal/obs"
	"shadowedit/internal/server"
	"shadowedit/internal/trace"
	"shadowedit/internal/workload"
)

// editPercent is the fraction of its file every session replaces each cycle,
// in every figure that edits.
const editPercent = 5

// ServerBenchConfig parametrizes one benchmark run.
type ServerBenchConfig struct {
	// Sessions is the number of concurrent client sessions (K).
	Sessions int
	// Cycles is the number of edit–submit–fetch cycles per session.
	Cycles int
	// FileSize is the data file size in bytes.
	FileSize int
	// Transport selects "tcp" (real loopback TCP), "netsim" (in-process
	// simulated LAN links; wall-clock is still what is measured) or "pipe"
	// (synchronous in-process net.Pipe streams — no file descriptors, so
	// session counts can scale past RLIMIT_NOFILE for capacity runs).
	Transport string
	// Jobs bounds concurrent job execution at the server; 0 means one
	// slot per session so the job pool never serializes the cycle.
	Jobs int
	// Seed makes the workload reproducible.
	Seed int64
	// Chunked opts every client into chunk transfers; off, the
	// same workload rides the classic delta/full path — the dedup figure's
	// baseline.
	Chunked bool
	// CacheCapacity bounds the server's shadow cache in bytes (0 =
	// unbounded). The dedup pressure scenario sets this below the working
	// set to force evictions and measure chunk-level rehydration.
	CacheCapacity int64
	// Redundancy, when nonzero, switches the workload from per-session
	// independent edits to the shared-content profile: every cycle all
	// sessions submit fresh variants of one common file, sharing ~Redundancy
	// of their bytes block for block (see workload.SharedVariant). This is
	// the cross-user dedup workload; successive cycles use unrelated common
	// bases, so only content-addressing — not line deltas — can exploit the
	// overlap.
	Redundancy float64
	// Tracer turns on full cycle tracing (every cycle sampled): the server
	// and every client observer share one tracer, so the run measures the
	// worst-case tracing overhead, flight recorders included.
	Tracer bool
	// ChromeOut, with Tracer set, writes the slowest completed trace as
	// Chrome trace-event JSON to this path after the run.
	ChromeOut string
}

func (c ServerBenchConfig) withDefaults() ServerBenchConfig {
	if c.Sessions <= 0 {
		c.Sessions = 8
	}
	if c.Cycles <= 0 {
		c.Cycles = 50
	}
	if c.FileSize <= 0 {
		c.FileSize = 8 * 1024
	}
	if c.Transport == "" {
		c.Transport = "tcp"
	}
	if c.Jobs <= 0 {
		c.Jobs = c.Sessions
	}
	if c.Seed == 0 {
		c.Seed = 1987
	}
	return c
}

// ServerBenchResult is one benchmark run's measurements, serialized into
// BENCH_server.json.
type ServerBenchResult struct {
	Label         string  `json:"label,omitempty"`
	Transport     string  `json:"transport"`
	Sessions      int     `json:"sessions"`
	CyclesPerSess int     `json:"cycles_per_session"`
	TotalCycles   int     `json:"total_cycles"`
	FileSize      int     `json:"file_size_bytes"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	CyclesPerSec  float64 `json:"cycles_per_sec"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`
	// Server-side leg percentiles, from the obs latency histograms the
	// run's Observer recorded (submit→ack and job queue→complete).
	SubmitAckP50Ms float64 `json:"submit_ack_p50_ms"`
	SubmitAckP99Ms float64 `json:"submit_ack_p99_ms"`
	JobP50Ms       float64 `json:"job_p50_ms"`
	JobP99Ms       float64 `json:"job_p99_ms"`
	// Virtual-time cycle percentiles, netsim transport only: a separate
	// deterministic pass replays each session's exact workload on its own
	// simulated network, stamping cycles with the workstation's virtual
	// clock — so these fields are byte-identical across repeated runs.
	VirtualP50Ms   float64 `json:"p50_virtual_ms,omitempty"`
	VirtualP90Ms   float64 `json:"p90_virtual_ms,omitempty"`
	VirtualP99Ms   float64 `json:"p99_virtual_ms,omitempty"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheEvictions int64   `json:"cache_evictions"`
	PullsIssued    int64   `json:"pulls_issued"`
	PullsDeferred  int64   `json:"pulls_deferred"`
	GoMaxProcs     int     `json:"gomaxprocs"`
	// Capacity-run footprint, set by RunCapacitySweep: goroutines and
	// resident heap bytes per connected session (client rig + server
	// session, measured against a pre-connect baseline after a GC), plus
	// the wall-clock cost of connecting and priming the whole fleet.
	GoroutinesPerSession float64 `json:"goroutines_per_session,omitempty"`
	ResidentKBPerSession float64 `json:"resident_kb_per_session,omitempty"`
	ConnectSec           float64 `json:"connect_sec,omitempty"`
	// Chunked transfer accounting, recorded for every run (a baseline run
	// shows zero manifest traffic and a dedup ratio from the store alone).
	// BytesOnWire is the client→server file-content payload (deltas, fulls,
	// manifests and chunk data) — the quantity chunk dedup reduces.
	Chunked           bool    `json:"chunked,omitempty"`
	Redundancy        float64 `json:"redundancy,omitempty"`
	CacheCapacity     int64   `json:"cache_capacity,omitempty"`
	BytesOnWire       int64   `json:"bytes_on_wire,omitempty"`
	UniqueCacheBytes  int64   `json:"unique_cache_bytes,omitempty"`
	LogicalCacheBytes int64   `json:"logical_cache_bytes,omitempty"`
	// DedupRatio is logical over unique cache bytes at the end of the run:
	// how many bytes the cache would hold without sub-file dedup per byte it
	// actually holds.
	DedupRatio float64 `json:"dedup_ratio,omitempty"`
	// Rehydrations counts transfers completed by fetching only missing
	// chunks; FullRetransmits counts degradations to whole-file pulls.
	Rehydrations    int64 `json:"rehydrations,omitempty"`
	FullRetransmits int64 `json:"full_retransmits,omitempty"`
	// The composition of BytesOnWire, for diagnosing where a dedup
	// regression spends its bytes.
	WireFullBytes     int64 `json:"wire_full_bytes,omitempty"`
	WireDeltaBytes    int64 `json:"wire_delta_bytes,omitempty"`
	WireManifestBytes int64 `json:"wire_manifest_bytes,omitempty"`
	WireChunkBytes    int64 `json:"wire_chunk_bytes,omitempty"`
	// Tree-sync figure accounting (labels "treesync-perfile" and
	// "treesync-tree"): the wire cost of reconciling a workspace whose
	// divergence is sparse. WireMessages counts every frame either direction
	// during the measured Sync; SyncWireBytes their payload bytes;
	// SyncRoundTrips the synchronous exchanges the tree walk needed (0 for
	// per-file); SyncVirtualMs the Sync's elapsed virtual time on the
	// simulated link.
	WireMessages   int64   `json:"wire_messages,omitempty"`
	SyncWireBytes  int64   `json:"sync_wire_bytes,omitempty"`
	SyncFiles      int     `json:"sync_files,omitempty"`
	SyncChanged    int     `json:"sync_changed,omitempty"`
	SyncRoundTrips int     `json:"sync_round_trips,omitempty"`
	SyncVirtualMs  float64 `json:"sync_virtual_ms,omitempty"`
	// Cluster figure accounting (labels "cluster-1", "cluster-2", ...): an
	// N-instance shadow-cache cluster driven over netsim, measured in
	// virtual time (cycles over the busiest instance's virtual elapsed, so
	// the cells compare instances, not goroutine scheduling). PeerForwards
	// et al. are fleet-wide sums; each counter is send-side-only at the
	// owner, so summing never double-counts.
	Instances         int     `json:"instances,omitempty"`
	VirtualElapsedSec float64 `json:"virtual_elapsed_sec,omitempty"`
	PeerForwards      int64   `json:"peer_forwards,omitempty"`
	PeerDeltaBytes    int64   `json:"peer_delta_bytes,omitempty"`
	PeerManifestBytes int64   `json:"peer_manifest_bytes,omitempty"`
	PeerChunkBytes    int64   `json:"peer_chunk_bytes,omitempty"`
	PeerBytesSaved    int64   `json:"peer_bytes_saved,omitempty"`
	PeerNegatives     int64   `json:"peer_negatives,omitempty"`
	OwnerMisses       int64   `json:"owner_misses,omitempty"`
	RingRebalances    int64   `json:"ring_rebalances,omitempty"`
	// Traced marks a run with full cycle tracing on; TraceCompleted and
	// TraceSpans summarize what the shared tracer assembled. Comparing a
	// traced run's cycles_per_sec against an untraced twin (labels
	// "trace-off"/"trace-all") yields the tracing overhead.
	Traced         bool  `json:"traced,omitempty"`
	TraceCompleted int64 `json:"trace_completed,omitempty"`
	TraceSpans     int64 `json:"trace_spans,omitempty"`
}

// String renders the one-line summary the benchmark prints.
func (r ServerBenchResult) String() string {
	s := fmt.Sprintf("%s: %d sessions x %d cycles: %.1f cycles/sec (p50 %.2fms, p90 %.2fms, p99 %.2fms, %.0f allocs/cycle; submit-ack p99 %.3fms, job p99 %.2fms)",
		r.Transport, r.Sessions, r.CyclesPerSess, r.CyclesPerSec, r.P50Ms, r.P90Ms, r.P99Ms, r.AllocsPerCycle, r.SubmitAckP99Ms, r.JobP99Ms)
	if r.VirtualP99Ms > 0 {
		s += fmt.Sprintf(" [virtual p50 %.2fms, p90 %.2fms, p99 %.2fms]", r.VirtualP50Ms, r.VirtualP90Ms, r.VirtualP99Ms)
	}
	if r.Traced {
		s += fmt.Sprintf(" [traced: %d traces, %d spans]", r.TraceCompleted, r.TraceSpans)
	}
	return s
}

// spec is the fleet one benchmark run drives: one server, cfg.Sessions
// sessions each editing its own file or, with Redundancy set, each submitting
// its own variant of the cycle's common file. With a tracer every client gets
// an observer minting its cycle traces there.
func (c ServerBenchConfig) spec(tracer *trace.Tracer) fleetSpec {
	scfg := server.Defaults("bench")
	scfg.MaxConcurrentJobs = c.Jobs
	scfg.CacheCapacity = c.CacheCapacity
	spec := fleetSpec{
		transport: c.Transport,
		server:    scfg,
		sessions:  c.Sessions,
		seed:      c.Seed,
		script:    jobScript,
		content:   editing(c.FileSize, editPercent),
		client: func(_ *fleetSession, cc *client.Config) {
			cc.Chunked = c.Chunked
			if tracer != nil {
				cc.Obs = obs.New(nil, nil)
				cc.Obs.SetTracer(tracer)
			}
		},
	}
	if c.Redundancy > 0 {
		// The shared-content workload: one common file per cycle (plus one
		// for priming), identical across sessions. Successive commons are
		// unrelated, so a session's previous version shares nothing usable
		// with its next — cross-user chunk dedup is the only redundancy
		// available.
		gen := workload.NewGenerator(c.Seed ^ 0x5eed)
		commons := make([][]byte, c.Cycles+1)
		for i := range commons {
			commons[i] = gen.File(c.FileSize)
		}
		spec.content = func(s *fleetSession, cyc int) []byte {
			return s.gen.SharedVariant(commons[cyc+1], c.Redundancy)
		}
	}
	return spec
}

// RunServerBench runs the multi-session throughput benchmark.
func RunServerBench(cfg ServerBenchConfig) (ServerBenchResult, error) {
	cfg = cfg.withDefaults()
	// Tracing-on runs share one tracer between the server and every client
	// observer: maximum span traffic, maximum contention — the honest
	// overhead number.
	var tracer *trace.Tracer
	if cfg.Tracer {
		tracer = trace.New(trace.Config{})
	}
	spec := cfg.spec(tracer)
	spec.server.Obs = obs.New(nil, nil)
	spec.server.Obs.SetTracer(tracer)
	res, err := runBench(spec, cfg.Cycles, nil)
	if err != nil {
		return ServerBenchResult{}, fmt.Errorf("serverbench: %w", err)
	}
	res.FileSize = cfg.FileSize
	res.Chunked, res.Redundancy, res.CacheCapacity = cfg.Chunked, cfg.Redundancy, cfg.CacheCapacity
	if cfg.Transport == "netsim" {
		vsnap, err := runVirtualPass(cfg)
		if err != nil {
			return ServerBenchResult{}, fmt.Errorf("serverbench: virtual pass: %w", err)
		}
		res.VirtualP50Ms = ms(vsnap.Quantile(0.50))
		res.VirtualP90Ms = ms(vsnap.Quantile(0.90))
		res.VirtualP99Ms = ms(vsnap.Quantile(0.99))
	}
	if tracer != nil {
		ts := tracer.Stats()
		res.Traced = true
		res.TraceCompleted = ts.Completed
		res.TraceSpans = ts.Spans
		if cfg.ChromeOut != "" {
			if err := writeSlowestChrome(tracer, cfg.ChromeOut); err != nil {
				return ServerBenchResult{}, fmt.Errorf("serverbench: chrome export: %w", err)
			}
		}
	}
	return res, nil
}

// runBench drives spec for cycles measured cycles and maps what the one
// server and the run recorded onto a result row. primed, if set, runs between
// priming and the measured cycles, after a garbage collection (the capacity
// figure samples its footprint there).
func runBench(spec fleetSpec, cycles int, primed func()) (ServerBenchResult, error) {
	f, run, err := drive(spec, cycles, func(*fleet) {
		runtime.GC()
		if primed != nil {
			primed()
		}
	})
	if err != nil {
		return ServerBenchResult{}, err
	}
	defer f.close()

	var all []time.Duration
	for _, lats := range run.latencies {
		all = append(all, lats...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	total := len(all)
	pct := func(p float64) float64 {
		if total == 0 {
			return 0
		}
		return ms(all[int(p*float64(total-1))])
	}
	srv := f.servers[0]
	cstats := srv.Cache().Stats()
	ackSnap := spec.server.Obs.SubmitAck.Snapshot()
	jobSnap := spec.server.Obs.JobLifetime.Snapshot()
	res := counterRow(srv.Metrics())
	res.Transport = spec.transport
	res.Sessions = spec.sessions
	res.CyclesPerSess = cycles
	res.TotalCycles = total
	res.ElapsedSec = run.elapsed.Seconds()
	res.CyclesPerSec = float64(total) / run.elapsed.Seconds()
	res.P50Ms, res.P90Ms, res.P99Ms = pct(0.50), pct(0.90), pct(0.99)
	res.SubmitAckP50Ms = ms(ackSnap.Quantile(0.50))
	res.SubmitAckP99Ms = ms(ackSnap.Quantile(0.99))
	res.JobP50Ms = ms(jobSnap.Quantile(0.50))
	res.JobP99Ms = ms(jobSnap.Quantile(0.99))
	res.AllocsPerCycle = float64(run.mallocs) / float64(max(total, 1))
	res.GoMaxProcs = runtime.GOMAXPROCS(0)
	res.UniqueCacheBytes = cstats.Bytes
	res.LogicalCacheBytes = cstats.LogicalBytes
	res.DedupRatio = cstats.DedupRatio()
	return res, nil
}

// counterRow maps one server's counters — or a cluster's, merged — onto the
// result row's counter fields.
func counterRow(s metrics.Snapshot) ServerBenchResult {
	return ServerBenchResult{
		CacheHits:         s.CacheHits,
		CacheMisses:       s.CacheMisses,
		CacheEvictions:    s.CacheEvictions,
		PullsIssued:       s.PullsIssued,
		PullsDeferred:     s.PullsDeferred,
		BytesOnWire:       s.FileBytes(),
		Rehydrations:      s.Rehydrations,
		FullRetransmits:   s.FullFallbacks,
		WireFullBytes:     s.FullBytes,
		WireDeltaBytes:    s.DeltaBytes,
		WireManifestBytes: s.ManifestBytes,
		WireChunkBytes:    s.ChunkBytes,
		PeerForwards:      s.PeerForwards,
		PeerDeltaBytes:    s.PeerDeltaBytes,
		PeerManifestBytes: s.PeerManifestBytes,
		PeerChunkBytes:    s.PeerChunkBytes,
		PeerBytesSaved:    s.DeltaBytesSaved,
		PeerNegatives:     s.PeerNegatives,
		OwnerMisses:       s.OwnerMisses,
		RingRebalances:    s.RingRebalances,
	}
}

// writeSlowestChrome exports the slowest completed trace as Chrome
// trace-event JSON (the CI artifact proving traces load in Perfetto).
func writeSlowestChrome(tracer *trace.Tracer, path string) error {
	recs := tracer.Slowest(1)
	if len(recs) == 0 {
		return fmt.Errorf("no completed traces to export")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, recs[0]); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// ms converts a duration to float milliseconds for the JSON schema.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runVirtualPass measures cycle latency in *virtual* time, deterministically.
// The concurrent wall-clock run cannot yield reproducible virtual latencies:
// all sessions share the server host's clock, so goroutine interleaving
// shifts which arrival advances it. Instead each session's exact workload
// (same index, so same names, seed and edit sequence) is replayed alone on a
// fresh simulated network whose clocks only this session drives, its cycles
// corked and stamped with the workstation's virtual clock. The per-session
// latencies land in one histogram, so repeated runs are byte-identical.
func runVirtualPass(cfg ServerBenchConfig) (obs.HistogramSnapshot, error) {
	var h obs.Histogram
	for i := 0; i < cfg.Sessions; i++ {
		spec := cfg.spec(nil)
		spec.sessions, spec.first, spec.virtual = 1, i, true
		f, run, err := drive(spec, cfg.Cycles, nil)
		if err != nil {
			return obs.HistogramSnapshot{}, err
		}
		f.close()
		for _, lat := range run.latencies[0] {
			h.Observe(lat)
		}
	}
	return h.Snapshot(), nil
}
