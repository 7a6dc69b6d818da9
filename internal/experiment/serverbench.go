// Server throughput benchmark: K concurrent sessions driving the full
// notify→pull→delta→job→output cycle against one server, measuring
// wall-clock cycle throughput and latency percentiles. Unlike the paper
// figures (virtual seconds on simulated links), this benchmark measures the
// server *implementation* — lock contention, syscalls, allocation — so the
// perf trajectory of the concurrent server core is tracked run over run in
// BENCH_server.json.
package experiment

import (
	"context"

	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"shadowedit/internal/client"
	"shadowedit/internal/env"
	"shadowedit/internal/naming"
	"shadowedit/internal/netsim"
	"shadowedit/internal/obs"
	"shadowedit/internal/server"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
	"shadowedit/internal/workload"
)

// ServerBenchConfig parametrizes one benchmark run.
type ServerBenchConfig struct {
	// Sessions is the number of concurrent client sessions (K).
	Sessions int
	// Cycles is the number of edit–submit–fetch cycles per session.
	Cycles int
	// FileSize is the data file size in bytes.
	FileSize int
	// EditPercent is the fraction of the file modified each cycle.
	EditPercent float64
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
	if c.EditPercent <= 0 {
		c.EditPercent = 5
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
	// owner, so summing never double-counts. PeerFullTransfers is a pointer
	// so its steady-state claim — zero full files between peers; the peer
	// protocol has no full-file frame — is recorded explicitly rather than
	// omitted.
	Instances         int     `json:"instances,omitempty"`
	VirtualElapsedSec float64 `json:"virtual_elapsed_sec,omitempty"`
	PeerForwards      int64   `json:"peer_forwards,omitempty"`
	PeerDeltaBytes    int64   `json:"peer_delta_bytes,omitempty"`
	PeerManifestBytes int64   `json:"peer_manifest_bytes,omitempty"`
	PeerChunkBytes    int64   `json:"peer_chunk_bytes,omitempty"`
	PeerBytesSaved    int64   `json:"peer_bytes_saved,omitempty"`
	PeerNegatives     int64   `json:"peer_negatives,omitempty"`
	PeerFullTransfers *int64  `json:"peer_full_transfers,omitempty"`
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

// benchTransport hides the difference between loopback TCP and netsim: it
// yields one server acceptor plus a dialer per client session.
type benchTransport struct {
	acceptor server.Acceptor
	dial     func(session int) (wire.Conn, error)
	close    func()
}

func newBenchTransport(cfg ServerBenchConfig) (*benchTransport, error) {
	switch cfg.Transport {
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		return &benchTransport{
			acceptor: server.AcceptorFunc(func() (wire.Conn, error) {
				c, err := ln.Accept()
				if err != nil {
					return nil, err
				}
				return wire.NewStreamConn(c), nil
			}),
			dial: func(int) (wire.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return wire.NewStreamConn(c), nil
			},
			close: func() { _ = ln.Close() },
		}, nil
	case "pipe":
		// Rendezvous dialer: every Dial mints a synchronous net.Pipe and
		// hands the server end to the acceptor. No sockets, no file
		// descriptors — 10k sessions cost only goroutines and heap,
		// which is exactly what a capacity run wants to measure.
		ch := make(chan net.Conn)
		closed := make(chan struct{})
		var once sync.Once
		return &benchTransport{
			acceptor: server.AcceptorFunc(func() (wire.Conn, error) {
				select {
				case c := <-ch:
					return wire.NewStreamConn(c), nil
				case <-closed:
					return nil, net.ErrClosed
				}
			}),
			dial: func(int) (wire.Conn, error) {
				c1, c2 := net.Pipe()
				select {
				case ch <- c2:
					return wire.NewStreamConn(c1), nil
				case <-closed:
					return nil, net.ErrClosed
				}
			},
			close: func() { once.Do(func() { close(closed) }) },
		}, nil
	case "netsim":
		nw := netsim.New()
		serverHost := nw.Host("super")
		lst, err := serverHost.Listen(1)
		if err != nil {
			return nil, err
		}
		clients := make([]*netsim.Host, cfg.Sessions)
		for i := range clients {
			clients[i] = nw.Host(fmt.Sprintf("ws%d", i))
			nw.Connect(clients[i], serverHost, netsim.LAN)
		}
		return &benchTransport{
			acceptor: server.AcceptorFunc(func() (wire.Conn, error) { return lst.Accept() }),
			dial: func(session int) (wire.Conn, error) {
				return clients[session].Dial("super", 1)
			},
			close: func() { _ = lst.Close() },
		}, nil
	default:
		return nil, fmt.Errorf("serverbench: unknown transport %q", cfg.Transport)
	}
}

// RunServerBench runs the multi-session throughput benchmark.
func RunServerBench(cfg ServerBenchConfig) (ServerBenchResult, error) {
	cfg = cfg.withDefaults()
	tr, err := newBenchTransport(cfg)
	if err != nil {
		return ServerBenchResult{}, err
	}
	defer tr.close()

	scfg := server.Defaults("bench")
	scfg.MaxConcurrentJobs = cfg.Jobs
	scfg.CacheCapacity = cfg.CacheCapacity
	scfg.Obs = obs.New(nil, nil)
	// Tracing-on runs share one tracer between the server and every client
	// observer: maximum span traffic, maximum contention — the honest
	// overhead number.
	var tracer *trace.Tracer
	if cfg.Tracer {
		tracer = trace.New(trace.Config{})
		scfg.Obs.SetTracer(tracer)
	}
	srv := server.New(scfg)
	go func() { _ = srv.Serve(tr.acceptor) }()
	defer srv.Close()

	// The shared-content workload: one common file per cycle (plus one for
	// priming), identical across sessions, from which each session derives
	// its own variant. Successive commons are unrelated, so a session's
	// previous version shares nothing usable with its next — cross-user
	// chunk dedup is the only redundancy available.
	var commons [][]byte
	if cfg.Redundancy > 0 {
		commonGen := workload.NewGenerator(cfg.Seed ^ 0x5eed)
		commons = make([][]byte, cfg.Cycles+1)
		for i := range commons {
			commons[i] = commonGen.File(cfg.FileSize)
		}
	}

	// One shared naming universe; each session is its own user at its own
	// workstation host, editing its own data file.
	universe := naming.NewUniverse("bench")
	type sessionRig struct {
		cl       *client.Client
		host     string
		dataPath string
		jobPath  string
		gen      *workload.Generator
		content  []byte
	}
	rigs := make([]*sessionRig, cfg.Sessions)
	for i := range rigs {
		host := fmt.Sprintf("ws%d", i)
		user := fmt.Sprintf("u%d", i)
		universe.AddHost(host)
		rig := &sessionRig{
			host:     host,
			dataPath: fmt.Sprintf("/u/%s/data.dat", user),
			jobPath:  fmt.Sprintf("/u/%s/run.job", user),
			gen:      workload.NewGenerator(cfg.Seed + int64(i)),
		}
		if commons != nil {
			rig.content = rig.gen.SharedVariant(commons[0], cfg.Redundancy)
		} else {
			rig.content = rig.gen.File(cfg.FileSize)
		}
		if err := universe.WriteFile(host, rig.jobPath, []byte("checksum data.dat\n")); err != nil {
			return ServerBenchResult{}, err
		}
		if err := universe.WriteFile(host, rig.dataPath, rig.content); err != nil {
			return ServerBenchResult{}, err
		}
		conn, err := tr.dial(i)
		if err != nil {
			return ServerBenchResult{}, err
		}
		ccfg := client.Config{
			User:     user,
			Universe: universe,
			Host:     host,
			Env:      env.Default(user),
			Chunked:  cfg.Chunked,
		}
		if tracer != nil {
			ccfg.Obs = obs.New(nil, nil)
			ccfg.Obs.SetTracer(tracer)
		}
		cl, err := client.Connect(context.Background(), conn, ccfg)
		if err != nil {
			return ServerBenchResult{}, err
		}
		rig.cl = cl
		rigs[i] = rig
		defer cl.Close()
	}

	// Prime: the first submission ships each file in full; the measured
	// cycles are the steady-state delta traffic the paper cares about.
	for _, rig := range rigs {
		job, err := rig.cl.Submit(context.Background(), rig.jobPath, []string{rig.dataPath}, client.SubmitOptions{})
		if err != nil {
			return ServerBenchResult{}, fmt.Errorf("serverbench: prime submit: %w", err)
		}
		if _, err := rig.cl.Wait(context.Background(), job); err != nil {
			return ServerBenchResult{}, fmt.Errorf("serverbench: prime wait: %w", err)
		}
	}

	latencies := make([][]time.Duration, cfg.Sessions)
	errs := make([]error, cfg.Sessions)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	var wg sync.WaitGroup
	for i, rig := range rigs {
		wg.Add(1)
		go func(i int, rig *sessionRig) {
			defer wg.Done()
			lats := make([]time.Duration, 0, cfg.Cycles)
			for cyc := 0; cyc < cfg.Cycles; cyc++ {
				// EditReplace keeps the file size stationary: EditMixed
				// inserts more than it deletes, so a long run would
				// compound the file and measure growth, not throughput.
				if commons != nil {
					rig.content = rig.gen.SharedVariant(commons[cyc+1], cfg.Redundancy)
				} else {
					rig.content = rig.gen.Modify(rig.content, cfg.EditPercent, workload.EditReplace)
				}
				if err := universe.WriteFile(rig.host, rig.dataPath, rig.content); err != nil {
					errs[i] = err
					return
				}
				t0 := time.Now()
				job, err := rig.cl.Submit(context.Background(), rig.jobPath, []string{rig.dataPath}, client.SubmitOptions{})
				if err != nil {
					errs[i] = fmt.Errorf("cycle %d submit: %w", cyc, err)
					return
				}
				if _, err := rig.cl.Wait(context.Background(), job); err != nil {
					errs[i] = fmt.Errorf("cycle %d wait: %w", cyc, err)
					return
				}
				lats = append(lats, time.Since(t0))
			}
			latencies[i] = lats
		}(i, rig)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	for _, err := range errs {
		if err != nil {
			return ServerBenchResult{}, fmt.Errorf("serverbench: %w", err)
		}
	}

	var all []time.Duration
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	total := len(all)
	pct := func(p float64) float64 {
		if total == 0 {
			return 0
		}
		idx := int(p * float64(total-1))
		return float64(all[idx]) / float64(time.Millisecond)
	}

	cstats := srv.Cache().Stats()
	issued, deferred := srv.FlowStats()
	snap := srv.Metrics()
	ackSnap := scfg.Obs.SubmitAck.Snapshot()
	jobSnap := scfg.Obs.JobLifetime.Snapshot()
	res := ServerBenchResult{
		Transport:      cfg.Transport,
		Sessions:       cfg.Sessions,
		CyclesPerSess:  cfg.Cycles,
		TotalCycles:    total,
		FileSize:       cfg.FileSize,
		ElapsedSec:     elapsed.Seconds(),
		CyclesPerSec:   float64(total) / elapsed.Seconds(),
		P50Ms:          pct(0.50),
		P90Ms:          pct(0.90),
		P99Ms:          pct(0.99),
		SubmitAckP50Ms: ms(ackSnap.Quantile(0.50)),
		SubmitAckP99Ms: ms(ackSnap.Quantile(0.99)),
		JobP50Ms:       ms(jobSnap.Quantile(0.50)),
		JobP99Ms:       ms(jobSnap.Quantile(0.99)),
		AllocsPerCycle: float64(ms1.Mallocs-ms0.Mallocs) / float64(max(total, 1)),
		CacheHits:      cstats.Hits,
		CacheMisses:    cstats.Misses,
		CacheEvictions: cstats.Evictions,
		PullsIssued:    issued,
		PullsDeferred:  deferred,
		GoMaxProcs:     runtime.GOMAXPROCS(0),

		Chunked:           cfg.Chunked,
		Redundancy:        cfg.Redundancy,
		CacheCapacity:     cfg.CacheCapacity,
		BytesOnWire:       snap.FileBytes(),
		UniqueCacheBytes:  cstats.Bytes,
		LogicalCacheBytes: cstats.LogicalBytes,
		DedupRatio:        cstats.DedupRatio(),
		Rehydrations:      snap.Rehydrations,
		FullRetransmits:   snap.FullFallbacks,
		WireFullBytes:     snap.FullBytes,
		WireDeltaBytes:    snap.DeltaBytes,
		WireManifestBytes: snap.ManifestBytes,
		WireChunkBytes:    snap.ChunkBytes,
	}
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
// (same generator seed, same prime + modify sequence) is replayed alone on a
// fresh simulated network whose clocks only this session drives; cycles are
// stamped with the workstation's virtual Now. The per-session histograms
// merge into one distribution, so repeated runs are byte-identical.
func runVirtualPass(cfg ServerBenchConfig) (obs.HistogramSnapshot, error) {
	var merged obs.HistogramSnapshot
	for i := 0; i < cfg.Sessions; i++ {
		snap, err := runVirtualSession(cfg, i)
		if err != nil {
			return merged, fmt.Errorf("session %d: %w", i, err)
		}
		merged.Merge(&snap)
	}
	return merged, nil
}

// runVirtualSession replays one session's workload on its own network and
// returns its virtual cycle-latency histogram.
func runVirtualSession(cfg ServerBenchConfig, i int) (obs.HistogramSnapshot, error) {
	fail := func(err error) (obs.HistogramSnapshot, error) { return obs.HistogramSnapshot{}, err }
	nw := netsim.New()
	serverHost := nw.Host("super")
	ws := nw.Host(fmt.Sprintf("ws%d", i))
	nw.Connect(ws, serverHost, netsim.LAN)
	lst, err := serverHost.Listen(1)
	if err != nil {
		return fail(err)
	}
	defer lst.Close()

	scfg := server.Defaults("bench")
	scfg.MaxConcurrentJobs = cfg.Jobs
	scfg.Clock = serverHost
	srv := server.New(scfg)
	go func() { _ = srv.Serve(server.AcceptorFunc(func() (wire.Conn, error) { return lst.Accept() })) }()
	defer srv.Close()

	universe := naming.NewUniverse("bench")
	host := fmt.Sprintf("ws%d", i)
	user := fmt.Sprintf("u%d", i)
	universe.AddHost(host)
	dataPath := fmt.Sprintf("/u/%s/data.dat", user)
	jobPath := fmt.Sprintf("/u/%s/run.job", user)
	gen := workload.NewGenerator(cfg.Seed + int64(i))
	content := gen.File(cfg.FileSize)
	if err := universe.WriteFile(host, jobPath, []byte("checksum data.dat\n")); err != nil {
		return fail(err)
	}
	if err := universe.WriteFile(host, dataPath, content); err != nil {
		return fail(err)
	}
	conn, err := ws.Dial("super", 1)
	if err != nil {
		return fail(err)
	}
	cl, err := client.Connect(context.Background(), conn, client.Config{
		User:     user,
		Universe: universe,
		Host:     host,
		Env:      env.Default(user),
		Clock:    ws,
	})
	if err != nil {
		return fail(err)
	}
	defer cl.Close()

	// Prime exactly like the wall run, so the measured cycles see the same
	// steady-state delta traffic.
	job, err := cl.Submit(context.Background(), jobPath, []string{dataPath}, client.SubmitOptions{})
	if err != nil {
		return fail(fmt.Errorf("prime submit: %w", err))
	}
	if _, err := cl.Wait(context.Background(), job); err != nil {
		return fail(fmt.Errorf("prime wait: %w", err))
	}

	var h obs.Histogram
	for cyc := 0; cyc < cfg.Cycles; cyc++ {
		content = gen.Modify(content, cfg.EditPercent, workload.EditReplace)
		if err := universe.WriteFile(host, dataPath, content); err != nil {
			return fail(err)
		}
		t0 := ws.Now()
		job, err := cl.Submit(context.Background(), jobPath, []string{dataPath}, client.SubmitOptions{})
		if err != nil {
			return fail(fmt.Errorf("cycle %d submit: %w", cyc, err))
		}
		if _, err := cl.Wait(context.Background(), job); err != nil {
			return fail(fmt.Errorf("cycle %d wait: %w", cyc, err))
		}
		h.Observe(ws.Now() - t0)
	}
	return h.Snapshot(), nil
}
