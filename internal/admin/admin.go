// Package admin serves shadowd's operator endpoint: a plain-HTTP surface
// for inspecting a running shadow server without attaching a client to it.
//
// The handler exposes:
//
//   - /healthz   — liveness plus a one-look summary (sessions, jobs, cache)
//   - /metrics   — the full metrics.Snapshot and every obs latency
//     histogram in Prometheus text exposition format
//   - /cachez    — the best-effort cache, shard by shard, with eviction
//     pressure (bytes vs. capacity, evictions, rejected puts)
//   - /sessionz  — attached sessions with in-flight pulls, deferred
//     notifies and outbound queue depth, plus job lifecycle counts
//   - /tracez    — completed cycle traces, slowest first; ?id=N shows one
//     trace's span timeline, and ?id=N&format=chrome exports it as Chrome
//     trace-event JSON (loadable in Perfetto)
//   - /flightz   — per-session flight recorders (recent protocol events;
//     a peer link is a session, user "peer" at host = member) and the
//     dumps retained from sessions that disconnected, faulted, had a job
//     fail, or — links — fell back to the client path
//   - /peerz     — this member's peer mesh: outbound links with per-link
//     fetch counters, inbound peer sessions with served/declined counts
//   - /clusterz  — the whole fleet: every member's health, merged counters
//     and latency histograms, the hash ring with per-owner heat and the
//     imbalance gauge; /clusterz.json is the JSON alias, and
//     ?scope=self answers with just this member's snapshot (the unit the
//     aggregation is built from)
//   - /debug/pprof/* — the standard Go profiler endpoints
//
// /cachez, /sessionz, /tracez, /flightz, /peerz and /clusterz render text
// for eyes and, with ?format=json, JSON for tooling. The package depends
// only on the server's read-side accessors (Sessions, JobCounts, Metrics,
// Cache, Directory, Observer, SessionFlights, FlightDumps, PeerLinks,
// PeerSessions, HeatStats), so serving it never perturbs the
// message hot paths beyond the cost of those snapshots.
package admin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"shadowedit/internal/metrics"
	"shadowedit/internal/obs"
	"shadowedit/internal/server"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// Options configures the admin handler.
type Options struct {
	// Server is the shadow server to expose. Required.
	Server *server.Server
	// Obs overrides the observer whose histograms /metrics renders;
	// nil uses Server.Observer().
	Obs *obs.Observer
	// Start anchors the uptime gauge; the zero value means "now".
	Start time.Time
	// Peers maps cluster member names to the base URL of their admin
	// endpoints (e.g. "http://super2:9090"). /clusterz scrapes each
	// peer's /clusterz.json?scope=self and merges; empty means this
	// member renders a single-member fleet.
	Peers map[string]string
	// FetchMember overrides how /clusterz fetches a peer snapshot —
	// tests inject httptest round-trips here. Nil uses a plain HTTP GET
	// with a short timeout.
	FetchMember func(member, url string) ([]byte, error)
}

// handler holds the resolved options.
type handler struct {
	srv   *server.Server
	obs   *obs.Observer
	start time.Time
	peers map[string]string
	fetch func(member, url string) ([]byte, error)
}

// NewHandler builds the admin endpoint's HTTP handler.
func NewHandler(opts Options) http.Handler {
	h := &handler{srv: opts.Server, obs: opts.Obs, start: opts.Start, peers: opts.Peers, fetch: opts.FetchMember}
	if h.obs == nil && h.srv != nil {
		h.obs = h.srv.Observer()
	}
	if h.start.IsZero() {
		h.start = time.Now()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/metrics", h.metrics)
	mux.HandleFunc("/cachez", h.cachez)
	mux.HandleFunc("/sessionz", h.sessionz)
	mux.HandleFunc("/tracez", h.tracez)
	mux.HandleFunc("/flightz", h.flightz)
	mux.HandleFunc("/peerz", h.peerz)
	mux.HandleFunc("/clusterz", h.clusterz)
	mux.HandleFunc("/clusterz.json", h.clusterz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// healthz reports liveness with a compact JSON summary.
func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	jobs := make(map[string]int)
	for state, n := range h.srv.JobCounts() {
		jobs[state.String()] = n
	}
	st := h.srv.Cache().Stats()
	body := struct {
		Status        string         `json:"status"`
		Server        string         `json:"server"`
		UptimeSeconds float64        `json:"uptime_seconds"`
		Sessions      int            `json:"sessions"`
		Jobs          map[string]int `json:"jobs"`
		CacheEntries  int            `json:"cache_entries"`
		CacheBytes    int64          `json:"cache_bytes"`
	}{
		Status:        "ok",
		Server:        h.srv.Name(),
		UptimeSeconds: time.Since(h.start).Seconds(),
		Sessions:      h.srv.SessionCount(),
		Jobs:          jobs,
		CacheEntries:  st.Entries,
		CacheBytes:    st.Bytes,
	}
	writeJSON(w, body)
}

// metrics renders every counter, gauge and histogram in Prometheus text
// exposition format, by hand — the repo takes no dependencies.
func (h *handler) metrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	snap := h.srv.Metrics()
	writeCounters(&b, snap)
	h.writeGauges(&b)
	if h.obs != nil {
		writeHistogram(&b, "shadow_submit_ack_seconds", "Server latency from receiving a SUBMIT to enqueueing its SUBMIT_OK.", h.obs.SubmitAck.Snapshot())
		writeHistogram(&b, "shadow_pull_arrival_seconds", "Server latency from issuing a PULL to the requested content arriving.", h.obs.PullArrival.Snapshot())
		writeHistogram(&b, "shadow_job_lifetime_seconds", "Latency from a job becoming runnable to its completion.", h.obs.JobLifetime.Snapshot())
		writeHistogram(&b, "shadow_cycle_seconds", "Full edit-submit-fetch cycle latency as the client sees it.", h.obs.Cycle.Snapshot())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// counterSpec names one Snapshot field for exposition.
type counterSpec struct {
	name, help string
	value      int64
}

// counterSpecs enumerates every metrics.Snapshot field. OBSERVABILITY.md
// documents each; keep the three in sync.
func counterSpecs(s metrics.Snapshot) []counterSpec {
	return []counterSpec{
		{"shadow_delta_bytes_total", "Payload bytes moved as shadow deltas.", s.DeltaBytes},
		{"shadow_full_bytes_total", "Payload bytes moved as full-content transfers.", s.FullBytes},
		{"shadow_control_bytes_total", "Payload bytes in control messages (notify, pull, ack, submit, status).", s.ControlBytes},
		{"shadow_output_bytes_total", "Job output bytes delivered to clients.", s.OutputBytes},
		{"shadow_messages_total", "Protocol messages counted on the transfer paths.", s.Messages},
		{"shadow_delta_sends_total", "Transfers that went as deltas.", s.DeltaSends},
		{"shadow_full_sends_total", "Transfers that went as full copies.", s.FullSends},
		{"shadow_cache_hits_total", "Shadow cache lookups that found a usable entry.", s.CacheHits},
		{"shadow_cache_misses_total", "Shadow cache lookups that missed.", s.CacheMisses},
		{"shadow_cache_evictions_total", "Entries evicted from the best-effort cache.", s.CacheEvictions},
		{"shadow_cache_rejected_total", "Puts the cache refused (content could not fit).", s.CacheRejected},
		{"shadow_pulls_issued_total", "File retrievals requested from clients.", s.PullsIssued},
		{"shadow_pulls_deferred_total", "Pulls postponed by the demand-driven policy.", s.PullsDeferred},
		{"shadow_pulls_coalesced_total", "Pulls satisfied by another session's in-flight fetch.", s.PullsCoalesced},
		{"shadow_reconnects_total", "Sessions re-established after connection loss.", s.Reconnects},
		{"shadow_retries_total", "Request attempts retried after transient failures.", s.Retries},
		{"shadow_full_fallbacks_total", "Delta transfers degraded to full copies (base evicted or lost).", s.FullFallbacks},
		{"shadow_manifest_bytes_total", "Payload bytes moved as chunk manifests (protocol v3).", s.ManifestBytes},
		{"shadow_chunk_bytes_total", "Payload bytes moved as chunk data (inline and requested).", s.ChunkBytes},
		{"shadow_manifest_sends_total", "Transfers that went as chunk manifests.", s.ManifestSends},
		{"shadow_chunk_sends_total", "CHUNK_DATA frames received.", s.ChunkSends},
		{"shadow_chunks_requested_total", "Chunk hashes asked for via CHUNK_REQ.", s.ChunksRequested},
		{"shadow_rehydrations_total", "Versions completed by fetching only their missing chunks.", s.Rehydrations},
		{"shadow_peer_forwards_total", "File versions served to or from a cluster peer as deltas or manifests.", s.PeerForwards},
		{"shadow_peer_delta_bytes_total", "Payload bytes moved as peer-forwarded deltas (protocol v5).", s.PeerDeltaBytes},
		{"shadow_peer_manifest_bytes_total", "Payload bytes moved as peer chunk manifests (protocol v5).", s.PeerManifestBytes},
		{"shadow_peer_chunk_bytes_total", "Payload bytes moved as peer-fetched chunk data (protocol v5).", s.PeerChunkBytes},
		{"shadow_peer_negatives_total", "Peer fetches the owner declined (requester pulls from the client).", s.PeerNegatives},
		{"shadow_delta_bytes_saved_total", "Full-content bytes peer forwarding avoided re-pulling from clients.", s.DeltaBytesSaved},
		{"shadow_owner_misses_total", "Requests that fell through a file's ring owner to a successor.", s.OwnerMisses},
		{"shadow_ring_rebalances_total", "Flights re-homed after a peer link died.", s.RingRebalances},
		{"shadow_file_touches_total", "File demand events feeding the ring heat view (notifies and job inputs).", s.FileTouches},
	}
}

func writeCounters(b *strings.Builder, s metrics.Snapshot) {
	for _, c := range counterSpecs(s) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.value)
	}
}

func (h *handler) writeGauges(b *strings.Builder) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("shadow_uptime_seconds", "Seconds since the server started.", time.Since(h.start).Seconds())
	gauge("shadow_sessions", "Attached client sessions.", float64(h.srv.SessionCount()))
	gauge("shadow_inflight_fetches", "Coalesced file retrievals currently outstanding.", float64(h.srv.InFlightFetches()))
	queued, running := h.srv.Load()
	gauge("shadow_pool_queued", "Jobs waiting for a processor slot.", float64(queued))
	gauge("shadow_pool_running", "Jobs executing right now.", float64(running))
	st := h.srv.Cache().Stats()
	gauge("shadow_cache_entries", "Entries in the best-effort cache.", float64(st.Entries))
	gauge("shadow_cache_bytes", "Unique content bytes held by the cache's chunk store.", float64(st.Bytes))
	gauge("shadow_cache_capacity_bytes", "Configured cache capacity (0 = unbounded).", float64(max64(h.srv.Cache().Capacity(), 0)))
	gauge("shadow_cache_unique_bytes", "Unique chunk bytes resident (each stored once however many files reference it).", float64(st.Bytes))
	gauge("shadow_cache_logical_bytes", "Sum of cached files' content lengths — what a whole-file cache would hold.", float64(st.LogicalBytes))
	gauge("shadow_cache_dedup_ratio", "Logical over unique cache bytes (1 when empty or dedup-free).", st.DedupRatio())
	gauge("shadow_chunk_store_chunks", "Unique chunks resident in the content-addressed store.", float64(h.srv.Cache().ChunkStore().Stats().Chunks))
	// Capacity footprint: what each attached session costs the process.
	// ReadMemStats stops the world briefly, which a scrape endpoint can
	// afford; the per-session derivations are what the capacity benchmark
	// tracks in BENCH_server.json, exported live here.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	goroutines := runtime.NumGoroutine()
	gauge("shadow_goroutines", "Goroutines in the server process.", float64(goroutines))
	gauge("shadow_heap_inuse_bytes", "Resident heap bytes (runtime.MemStats.HeapInuse).", float64(mem.HeapInuse))
	if n := h.srv.SessionCount(); n > 0 {
		gauge("shadow_goroutines_per_session", "Process goroutines divided by attached sessions.", float64(goroutines)/float64(n))
		gauge("shadow_heap_inuse_bytes_per_session", "Resident heap bytes divided by attached sessions.", float64(mem.HeapInuse)/float64(n))
	}
	gauge("shadow_ring_imbalance", "Hottest ring owner's file demand over the mean (1 = even, 0 = idle).", h.srv.HeatStats(0).Imbalance)
	js := h.srv.JobStats()
	gauge("shadow_jobs_live", "Jobs in the job table: submitted, output not yet acknowledged.", float64(js.Live))
	gauge("shadow_jobs_unacked", "Finished jobs held for clients that have not acknowledged their output.", float64(js.Unacked))
	gauge("shadow_jobs_unacked_bytes", "Output bytes of those jobs: the one structure bounded by neither the cache nor the live sessions.", float64(js.UnackedBytes))
	fmt.Fprintf(b, "# HELP shadow_jobs_retired_total Jobs acknowledged and forgotten (a bounded ring keeps their status).\n"+
		"# TYPE shadow_jobs_retired_total counter\nshadow_jobs_retired_total %d\n", js.Retired)
	counts := h.srv.JobCounts()
	fmt.Fprintf(b, "# HELP shadow_jobs Submitted jobs by lifecycle state.\n# TYPE shadow_jobs gauge\n")
	for _, state := range []wire.JobState{wire.JobQueued, wire.JobFetching, wire.JobRunning, wire.JobDone, wire.JobFailed} {
		fmt.Fprintf(b, "shadow_jobs{state=%q} %d\n", state.String(), counts[state])
	}
}

// The canonical histogram export grid: cumulative counts at every
// power-of-two bound from 2^12 ns (≈4.1µs) to 2^43 ns (≈2.4h). The bound
// set is fixed — it does not depend on which buckets hold samples — so
// every instance emits the same 32 `le` values and an external aggregator
// can sum the series bucket-by-bucket across a fleet of shadow servers.
const (
	histLoExp = 12
	histHiExp = 43
)

// writeHistogram renders one obs histogram in Prometheus histogram syntax
// on the canonical power-of-two grid. The counts are exact (powers of two
// are octave boundaries of the underlying log-linear histogram), cumulative
// as the exposition format requires, and +Inf closes the series.
func writeHistogram(b *strings.Builder, name, help string, s obs.HistogramSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, bk := range s.Pow2Buckets(histLoExp, histHiExp) {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatSeconds(bk.Le), bk.Count)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(b, "%s_sum %g\n", name, s.Sum.Seconds())
	fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
}

// formatSeconds renders a nanosecond bound as seconds with enough precision
// to keep distinct buckets distinct.
func formatSeconds(ns uint64) string {
	return fmt.Sprintf("%.9g", float64(ns)/1e9)
}

// cacheView is /cachez's JSON shape.
type cacheView struct {
	Policy        string `json:"policy"`
	CapacityBytes int64  `json:"capacity_bytes"`
	Bytes         int64  `json:"bytes"`
	Entries       int    `json:"entries"`
	Hits          int64  `json:"hits"`
	Misses        int64  `json:"misses"`
	Evictions     int64  `json:"evictions"`
	Rejected      int64  `json:"rejected"`
	// The content-addressed chunk store behind the entries: unique vs
	// logical bytes is the measured sub-file dedup.
	Chunks       int              `json:"chunks"`
	UniqueBytes  int64            `json:"unique_bytes"`
	LogicalBytes int64            `json:"logical_bytes"`
	DedupRatio   float64          `json:"dedup_ratio"`
	ChunkPuts    int64            `json:"chunk_puts"`
	ChunkDups    int64            `json:"chunk_dups"`
	ChunkFrees   int64            `json:"chunk_frees"`
	Files        []cacheEntryView `json:"files"`
}

type cacheEntryView struct {
	Shard    int    `json:"shard"`
	ID       uint64 `json:"id"`
	File     string `json:"file,omitempty"`
	Version  uint64 `json:"version"`
	Bytes    int    `json:"bytes"`
	LastUsed int64  `json:"last_used_seq"`
}

func (h *handler) cacheView() cacheView {
	c := h.srv.Cache()
	st := c.Stats()
	cs := c.ChunkStore().Stats()
	v := cacheView{
		Policy:        c.Policy().String(),
		CapacityBytes: c.Capacity(),
		Bytes:         st.Bytes,
		Entries:       st.Entries,
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		Rejected:      st.Rejected,
		Chunks:        cs.Chunks,
		UniqueBytes:   cs.UniqueBytes,
		LogicalBytes:  st.LogicalBytes,
		DedupRatio:    st.DedupRatio(),
		ChunkPuts:     cs.Puts,
		ChunkDups:     cs.Dups,
		ChunkFrees:    cs.Frees,
	}
	entries := c.Entries()
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].Shard != entries[b].Shard {
			return entries[a].Shard < entries[b].Shard
		}
		return entries[a].ID < entries[b].ID
	})
	for _, e := range entries {
		ev := cacheEntryView{
			Shard:    e.Shard,
			ID:       uint64(e.ID),
			Version:  e.Version,
			Bytes:    e.Size,
			LastUsed: e.LastUsed,
		}
		if ref, ok := h.srv.Directory().RefOf(e.ID); ok {
			ev.File = ref.String()
		}
		v.Files = append(v.Files, ev)
	}
	return v
}

// cachez shows the best-effort cache shard by shard.
func (h *handler) cachez(w http.ResponseWriter, r *http.Request) {
	v := h.cacheView()
	if wantJSON(r) {
		writeJSON(w, v)
		return
	}
	var b strings.Builder
	capStr := "unbounded"
	if v.CapacityBytes > 0 {
		capStr = fmt.Sprintf("%d bytes (%.1f%% full)", v.CapacityBytes, 100*float64(v.Bytes)/float64(v.CapacityBytes))
	}
	fmt.Fprintf(&b, "shadow cache: %d entries, %d bytes, capacity %s, policy %s\n", v.Entries, v.Bytes, capStr, v.Policy)
	fmt.Fprintf(&b, "pressure: %d hits, %d misses, %d evictions, %d rejected puts\n", v.Hits, v.Misses, v.Evictions, v.Rejected)
	fmt.Fprintf(&b, "chunks: %d unique holding %d bytes for %d logical (dedup %.2fx); %d puts, %d dup hits, %d frees\n\n",
		v.Chunks, v.UniqueBytes, v.LogicalBytes, v.DedupRatio, v.ChunkPuts, v.ChunkDups, v.ChunkFrees)
	shard := -1
	for _, e := range v.Files {
		if e.Shard != shard {
			shard = e.Shard
			fmt.Fprintf(&b, "shard %d:\n", shard)
		}
		name := e.File
		if name == "" {
			name = fmt.Sprintf("shadow-id %d", e.ID)
		}
		fmt.Fprintf(&b, "  %s v%d  %d bytes  lastused=%d\n", name, e.Version, e.Bytes, e.LastUsed)
	}
	writeText(w, b.String())
}

// sessionView is /sessionz's JSON shape.
type sessionView struct {
	Sessions        []server.SessionInfo `json:"sessions"`
	Jobs            map[string]int       `json:"jobs"`
	JobTable        server.JobStats      `json:"job_table"`
	InFlightFetches int                  `json:"inflight_fetches"`
}

// sessionz shows attached sessions and job lifecycle counts.
func (h *handler) sessionz(w http.ResponseWriter, r *http.Request) {
	v := sessionView{
		Sessions:        h.srv.Sessions(),
		Jobs:            make(map[string]int),
		JobTable:        h.srv.JobStats(),
		InFlightFetches: h.srv.InFlightFetches(),
	}
	for state, n := range h.srv.JobCounts() {
		v.Jobs[state.String()] = n
	}
	if wantJSON(r) {
		writeJSON(w, v)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d sessions attached, %d fetches in flight\n", len(v.Sessions), v.InFlightFetches)
	for _, s := range v.Sessions {
		who := "(handshaking)"
		if s.User != "" {
			who = fmt.Sprintf("%s@%s domain=%s", s.User, s.ClientHost, s.Domain)
		}
		fmt.Fprintf(&b, "  session %d: %s  pulls-in-flight=%d deferred-notifies=%d queued-writes=%d\n",
			s.ID, who, s.PullsInFlight, s.DeferredNotifies, s.QueuedWrites)
	}
	states := make([]string, 0, len(v.Jobs))
	for s := range v.Jobs {
		states = append(states, s)
	}
	sort.Strings(states)
	b.WriteString("jobs:")
	if len(states) == 0 {
		b.WriteString(" none")
	}
	for _, s := range states {
		fmt.Fprintf(&b, " %s=%d", s, v.Jobs[s])
	}
	fmt.Fprintf(&b, "\njob table: live=%d unacked=%d unacked-bytes=%d retired=%d\n",
		v.JobTable.Live, v.JobTable.Unacked, v.JobTable.UnackedBytes, v.JobTable.Retired)
	writeText(w, b.String())
}

// traceSummary is one /tracez list row.
type traceSummary struct {
	ID       uint64 `json:"id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"duration_ns"`
	Spans    int    `json:"spans"`
	Session  uint64 `json:"session,omitempty"`
	Job      uint64 `json:"job,omitempty"`
	RootFile string `json:"file,omitempty"`
}

// tracezView is /tracez's JSON list shape.
type tracezView struct {
	Stats  trace.Stats    `json:"stats"`
	Traces []traceSummary `json:"traces"`
}

// tracer returns the tracer the admin surface reads from (nil = off).
func (h *handler) tracer() *trace.Tracer {
	if h.obs == nil {
		return nil
	}
	return h.obs.Tracer()
}

// tracez lists completed cycle traces slowest first (?n bounds the list,
// default 32). ?id=N renders one trace's span timeline; with &format=chrome
// it exports Chrome trace-event JSON, with &format=json the raw record.
func (h *handler) tracez(w http.ResponseWriter, r *http.Request) {
	tr := h.tracer()
	if tr == nil {
		writeText(w, "tracing disabled (start shadowd with -trace, or attach a tracer to the observer)\n")
		return
	}
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			http.Error(w, "bad trace id: "+idStr, http.StatusBadRequest)
			return
		}
		rec, ok := tr.Lookup(id)
		if !ok {
			http.Error(w, fmt.Sprintf("trace %d not found (not completed yet, or evicted)", id), http.StatusNotFound)
			return
		}
		switch r.URL.Query().Get("format") {
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=trace-%d.json", id))
			_ = trace.WriteChrome(w, rec)
		case "json":
			writeJSON(w, rec)
		default:
			writeText(w, renderTrace(rec))
		}
		return
	}
	n := 32
	if ns := r.URL.Query().Get("n"); ns != "" {
		if v, err := strconv.Atoi(ns); err == nil {
			n = v
		}
	}
	recs := tr.Slowest(n)
	v := tracezView{Stats: tr.Stats(), Traces: make([]traceSummary, 0, len(recs))}
	for _, rec := range recs {
		v.Traces = append(v.Traces, summarize(rec))
	}
	if wantJSON(r) {
		writeJSON(w, v)
		return
	}
	var b strings.Builder
	st := v.Stats
	fmt.Fprintf(&b, "cycle traces: %d completed, %d active (minted %d, unsampled %d, spans %d, dropped %d, evicted %d)\n",
		st.Completed, st.Active, st.Minted, st.Unsampled, st.Spans, st.DroppedSpans, st.Evicted)
	b.WriteString("slowest first; /tracez?id=N for the timeline, &format=chrome for Perfetto\n\n")
	for _, t := range v.Traces {
		fmt.Fprintf(&b, "  trace %-6d %-12s %10v  %d spans", t.ID, t.Name, time.Duration(t.DurNS), t.Spans)
		if t.Job != 0 {
			fmt.Fprintf(&b, "  job=%d", t.Job)
		}
		if t.RootFile != "" {
			fmt.Fprintf(&b, "  file=%s", t.RootFile)
		}
		b.WriteString("\n")
	}
	writeText(w, b.String())
}

// summarize derives a list row from a trace record.
func summarize(rec trace.Record) traceSummary {
	start, end := rec.Bounds()
	s := traceSummary{
		ID:      rec.ID,
		Name:    rec.Name(),
		StartNS: start.Nanoseconds(),
		DurNS:   (end - start).Nanoseconds(),
		Spans:   len(rec.Spans),
	}
	for _, sp := range rec.Spans {
		if s.Session == 0 && sp.Session != 0 {
			s.Session = sp.Session
		}
		if s.Job == 0 && sp.Job != 0 {
			s.Job = sp.Job
		}
		if s.RootFile == "" && sp.File != "" {
			s.RootFile = sp.File
		}
	}
	return s
}

// renderTrace renders one trace's spans as a text timeline, offsets
// relative to the trace's earliest start.
func renderTrace(rec trace.Record) string {
	start, end := rec.Bounds()
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d (%s): %d spans, %v\n", rec.ID, rec.Name(), len(rec.Spans), end-start)
	for _, sp := range rec.Spans {
		fmt.Fprintf(&b, "  [+%-10v %10v] %-20s", sp.Start-start, sp.End-sp.Start, sp.Name)
		if sp.Session != 0 {
			fmt.Fprintf(&b, " session=%d", sp.Session)
		}
		if sp.Job != 0 {
			fmt.Fprintf(&b, " job=%d", sp.Job)
		}
		if sp.File != "" {
			fmt.Fprintf(&b, " file=%s", sp.File)
		}
		if sp.Detail != "" {
			fmt.Fprintf(&b, " (%s)", sp.Detail)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// flightzView is /flightz's JSON shape.
type flightzView struct {
	Live  []server.SessionFlight `json:"live"`
	Dumps []server.FlightDump    `json:"dumps"`
}

// flightz shows each live session's flight recorder — peer links are
// sessions too, user "peer" at host = the member dialed — and the dumps
// retained from sessions that died, faulted, had a job fail, or (links) fell
// back to the client path.
func (h *handler) flightz(w http.ResponseWriter, r *http.Request) {
	v := flightzView{Live: h.srv.SessionFlights(), Dumps: h.srv.FlightDumps()}
	if wantJSON(r) {
		writeJSON(w, v)
		return
	}
	var b strings.Builder
	if h.tracer() == nil {
		b.WriteString("flight recorders off (tracing disabled)\n")
	}
	fmt.Fprintf(&b, "%d live session recorders, %d retained dumps\n", len(v.Live), len(v.Dumps))
	for _, f := range v.Live {
		fmt.Fprintf(&b, "\nsession %d (%s@%s): %d events\n", f.Session, f.User, f.Host, len(f.Events))
		writeFlightEvents(&b, f.Events)
	}
	for _, d := range v.Dumps {
		fmt.Fprintf(&b, "\ndump: session %d (%s@%s) reason=%q at %v, %d events\n",
			d.Session, d.User, d.Host, d.Reason, d.At, len(d.Events))
		writeFlightEvents(&b, d.Events)
	}
	writeText(w, b.String())
}

func writeFlightEvents(b *strings.Builder, events []trace.Event) {
	for _, e := range events {
		fmt.Fprintf(b, "  [%10v] %-5s %-14s", time.Duration(e.At), e.Kind, e.Name)
		if e.Trace != 0 {
			fmt.Fprintf(b, " trace=%d", e.Trace)
		}
		if e.Detail != "" {
			fmt.Fprintf(b, " (%s)", e.Detail)
		}
		b.WriteString("\n")
	}
}

func wantJSON(r *http.Request) bool {
	return r.URL.Query().Get("format") == "json"
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeText(w http.ResponseWriter, s string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(s))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
