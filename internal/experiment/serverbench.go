// Multi-session server runs: K concurrent sessions driving the full
// notify→pull→delta→job→output cycle against one server. The dedup and
// capacity figures measure such runs and record them as rows of
// BENCH_server.json; the server figure replays each session alone in virtual
// time for deterministic cycle-latency percentiles. Wall-clock throughput of
// the server on real TCP is bench/'s to measure, not this package's.
package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"shadowedit/internal/client"
	"shadowedit/internal/metrics"
	"shadowedit/internal/obs"
	"shadowedit/internal/server"
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
	// AllocsPerCycle is the whole process's heap allocation count over the
	// measured cycles, client rigs included, per cycle.
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
	// BusiestMemberJobs counts the measured jobs the member that ran the
	// most of them ran.
	BusiestMemberJobs int `json:"busiest_member_jobs,omitempty"`
}

// spec is the fleet one benchmark run drives over transport: one server,
// cfg.Sessions sessions each editing its own file or, with Redundancy set,
// each submitting its own variant of the cycle's common file.
func (c ServerBenchConfig) spec(transport string) fleetSpec {
	scfg := server.Defaults("bench")
	scfg.MaxConcurrentJobs = c.Sessions // the job pool never serializes the cycle
	scfg.CacheCapacity = c.CacheCapacity
	spec := fleetSpec{
		transport: transport,
		server:    scfg,
		sessions:  c.Sessions,
		seed:      c.Seed,
		script:    jobScript,
		content:   editing(c.FileSize, editPercent),
		client:    func(_ *fleetSession, cc *client.Config) { cc.Chunked = c.Chunked },
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

// RunServerBench drives cfg's sessions concurrently over loopback TCP and
// returns what the run measured. The server has an observer, as shadowd's
// always does.
func RunServerBench(cfg ServerBenchConfig) (ServerBenchResult, error) {
	cfg = cfg.withDefaults()
	spec := cfg.spec("tcp")
	spec.server.Obs = obs.New(nil, nil)
	res, err := runBench(spec, cfg.Cycles, nil)
	if err != nil {
		return ServerBenchResult{}, fmt.Errorf("serverbench: %w", err)
	}
	res.FileSize = cfg.FileSize
	res.Chunked, res.Redundancy, res.CacheCapacity = cfg.Chunked, cfg.Redundancy, cfg.CacheCapacity
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
	res := counterRow(srv.Metrics())
	res.Transport = spec.transport
	res.Sessions = spec.sessions
	res.CyclesPerSess = cycles
	res.TotalCycles = total
	res.ElapsedSec = run.elapsed.Seconds()
	res.CyclesPerSec = float64(total) / run.elapsed.Seconds()
	res.P50Ms, res.P90Ms, res.P99Ms = pct(0.50), pct(0.90), pct(0.99)
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

// ms converts a duration to float milliseconds for the JSON schema.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// RunVirtualLatency is the server figure: cycle latency in *virtual* time,
// deterministically. A concurrent run cannot yield reproducible virtual
// latencies: all sessions share the server host's clock, so goroutine
// interleaving shifts which arrival advances it. Instead each session's exact
// workload (same index, so same names, seed and edit sequence) is replayed
// alone on a fresh simulated network whose clocks only this session drives,
// its cycles corked and stamped with the workstation's virtual clock. The
// per-session latencies land in one histogram, so repeated runs are
// byte-identical.
func RunVirtualLatency(cfg ServerBenchConfig) (obs.HistogramSnapshot, error) {
	cfg = cfg.withDefaults()
	var h obs.Histogram
	for i := 0; i < cfg.Sessions; i++ {
		spec := cfg.spec("netsim")
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
