// Package trace is the distributed cycle-tracing subsystem: Dapper-style
// spans assembled into per-cycle causal traces, propagated between client
// and server through the wire protocol's optional trace-context header
// (wire.TraceContext, protocol version 2).
//
// The client mints a trace id when a cycle starts — an editor postprocessor
// notify or an explicit submit — and every message it sends for that cycle
// carries the context, so one trace covers client notify → server pull
// decision → delta/full transfer → cache apply → job queue wait → job run →
// output delivery → client fetch. Each process records its spans into its
// own Tracer; in-process simulations may share one Tracer between client
// and server, producing a single end-to-end timeline.
//
// Determinism: a Tracer holds no clock of its own. Span timestamps come
// from the clock of whichever obs.Observer started the span, so simulated
// deployments stamp spans with netsim virtual time and a seeded run's
// traces are byte-identical across repetitions. Trace and span ids are
// plain counters (the trace id carries a caller-supplied origin in its high
// bits), never random.
//
// The package also provides the per-session flight recorder (Ring): a
// fixed-size lock-free buffer of recent protocol/span events, cheap enough
// to run always-on and dumped when a session disconnects, faults, or one of
// its jobs fails.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shadowedit/internal/wire"
)

// Config parametrizes a Tracer. The zero value selects the documented
// defaults.
type Config struct {
	// Capacity bounds the completed-trace ring (default 128): /tracez
	// shows at most this many recent traces, oldest evicted first.
	Capacity int
	// MaxActive bounds concurrently assembling traces (default 1024). A
	// trace that never ends (its client vanished mid-cycle) is force-
	// completed when the table overflows, so the tracer's memory stays
	// bounded under any workload.
	MaxActive int
	// Sample is the mint sampling rate: 1 traces every cycle, N traces one
	// cycle in N, <= 0 behaves as 1. Sampling is decided deterministically
	// from the mint counter, never randomly. Propagated contexts are
	// always honored: the minting side already made the decision.
	Sample int
	// Origin distinguishes id spaces when several minting tracers feed one
	// collector: its low 24 bits become the trace id's high bits. Zero is
	// fine for a single minter.
	Origin uint64
	// MaxSpans bounds the spans kept per trace (default 512); later spans
	// are dropped and counted, so a pathological cycle cannot balloon one
	// record.
	MaxSpans int
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 128
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 1024
	}
	if c.Sample <= 0 {
		c.Sample = 1
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 512
	}
	return c
}

// Span is one timed operation within a trace. Exported fields are the
// span's identity and attributes; they are written between start and
// Finish by the owning goroutine and must not be mutated afterwards.
//
// All methods are nil-safe: a nil *Span (tracing off, or an unsampled
// cycle) accepts every call as a no-op, so instrumentation points never
// branch on whether tracing is enabled.
type Span struct {
	// Trace is the owning trace id; ID this span's id; Parent the id of
	// the span that caused it (0 for a root).
	Trace, ID, Parent uint64
	// Name identifies the operation, dotted by side: "cycle",
	// "server.pull", "client.answer-pull", ...
	Name string
	// Start and End are observer-clock stamps (virtual time under netsim).
	Start, End time.Duration
	// Session and Job attribute the span (0 = not applicable).
	Session, Job uint64
	// File is the file reference key the span concerns, if any.
	File string
	// Detail is a free-form annotation ("pull-immediate", "exit 0", ...).
	Detail string

	tracer *Tracer
	clock  func() time.Duration
}

// Context returns the propagation context naming this span as parent.
func (s *Span) Context() wire.TraceContext {
	if s == nil {
		return wire.TraceContext{}
	}
	return wire.TraceContext{TraceID: s.Trace, SpanID: s.ID}
}

// SetSession attributes the span to a server session. Returns s (chainable).
func (s *Span) SetSession(id uint64) *Span {
	if s != nil {
		s.Session = id
	}
	return s
}

// SetJob attributes the span to a job.
func (s *Span) SetJob(id uint64) *Span {
	if s != nil {
		s.Job = id
	}
	return s
}

// SetFile attributes the span to a file reference key.
func (s *Span) SetFile(key string) *Span {
	if s != nil {
		s.File = key
	}
	return s
}

// Annotate sets the span's free-form detail.
func (s *Span) Annotate(detail string) *Span {
	if s != nil {
		s.Detail = detail
	}
	return s
}

// Finish stamps the span's end time and hands it to the tracer; only the
// first Finish (or FinishAt) of a span does anything.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.FinishAt(s.clock())
}

// FinishAt records the span with an explicit end stamp instead of reading
// the clock. Paths that finish a span after handing work to another
// goroutine use it under simulated time, where a late clock read could
// absorb unrelated arrivals that already advanced the shared virtual clock.
// A span is recorded once: finishing it again (a deferred Finish behind an
// explicit one) changes nothing.
func (s *Span) FinishAt(end time.Duration) {
	if s == nil || s.tracer == nil {
		return
	}
	s.End = end
	s.tracer.addSpan(s)
	s.tracer = nil
}

// Record is one assembled trace: its spans in finish order.
type Record struct {
	// ID is the trace id.
	ID uint64
	// Spans holds the trace's spans in the order they finished.
	Spans []Span
}

// Name returns the trace's root span name (the span with Parent 0), or the
// first span's name when no root finished.
func (r Record) Name() string {
	for _, s := range r.Spans {
		if s.Parent == 0 {
			return s.Name
		}
	}
	if len(r.Spans) > 0 {
		return r.Spans[0].Name
	}
	return ""
}

// Bounds returns the earliest start and latest end across the spans.
func (r Record) Bounds() (start, end time.Duration) {
	for i, s := range r.Spans {
		if i == 0 || s.Start < start {
			start = s.Start
		}
		if s.End > end {
			end = s.End
		}
	}
	return start, end
}

// Duration is the trace's wall (or virtual) extent: latest end minus
// earliest start.
func (r Record) Duration() time.Duration {
	start, end := r.Bounds()
	return end - start
}

// Stats summarizes a tracer's lifetime activity.
type Stats struct {
	// Minted counts StartTrace calls that produced a trace (sampled in).
	Minted int64
	// Unsampled counts StartTrace calls the sampling rate skipped.
	Unsampled int64
	// Spans counts spans recorded into traces.
	Spans int64
	// DroppedSpans counts spans that found no live trace (arrived after
	// the record was evicted, or past the per-trace span cap).
	DroppedSpans int64
	// Completed counts traces moved to the completed ring by EndTrace.
	Completed int64
	// Evicted counts active traces force-completed by MaxActive overflow.
	Evicted int64
	// Active is the number of traces still assembling.
	Active int
}

// Tracer assembles spans into traces and keeps a bounded ring of recently
// completed ones. All methods are safe for concurrent use and nil-safe: a
// nil *Tracer is a disabled tracer whose StartTrace/StartSpan return nil
// spans.
type Tracer struct {
	cfg Config

	mintCount atomic.Uint64 // StartTrace calls, drives id minting and sampling
	nextSpan  atomic.Uint64

	mu      sync.Mutex
	active  map[uint64]*Record // trace id -> assembling record
	order   []uint64           // active ids in creation order (eviction)
	done    []Record           // circular completed ring, len == cfg.Capacity
	doneAt  map[uint64]int     // trace id -> physical index in done
	doneN   int                // completed records currently held
	donePtr int                // next overwrite position

	minted, unsampled, spans, droppedSpans, completed, evicted int64
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{
		cfg:    cfg,
		active: make(map[uint64]*Record),
		done:   make([]Record, cfg.Capacity),
		doneAt: make(map[uint64]int),
	}
}

// StartTrace mints a new trace and returns its root span, stamped with
// clock. Returns nil when the tracer is nil or the sampling rate skips this
// cycle — the nil span then absorbs the whole instrumentation path.
func (t *Tracer) StartTrace(name string, clock func() time.Duration) *Span {
	if t == nil {
		return nil
	}
	n := t.mintCount.Add(1)
	if t.cfg.Sample > 1 && n%uint64(t.cfg.Sample) != 0 {
		t.mu.Lock()
		t.unsampled++
		t.mu.Unlock()
		return nil
	}
	id := (t.cfg.Origin&0xFFFFFF)<<40 | (n & 0xFFFFFFFFFF)
	sp := &Span{
		Trace:  id,
		ID:     t.nextSpan.Add(1),
		Name:   name,
		Start:  clock(),
		tracer: t,
		clock:  clock,
	}
	t.mu.Lock()
	t.minted++
	t.ensureActiveLocked(id)
	t.mu.Unlock()
	return sp
}

// StartSpan opens a child span under a propagated context. Returns nil when
// the tracer is nil or the context is invalid (the peer did not trace this
// cycle), so un-instrumented traffic costs one branch.
func (t *Tracer) StartSpan(parent wire.TraceContext, name string, clock func() time.Duration) *Span {
	if t == nil || !parent.Valid() {
		return nil
	}
	sp := &Span{
		Trace:  parent.TraceID,
		ID:     t.nextSpan.Add(1),
		Parent: parent.SpanID,
		Name:   name,
		Start:  clock(),
		tracer: t,
		clock:  clock,
	}
	t.mu.Lock()
	t.ensureActiveLocked(parent.TraceID)
	t.mu.Unlock()
	return sp
}

// ensureActiveLocked creates the assembly record for a trace id if neither
// the active table nor the completed ring holds it, evicting the oldest
// active trace on overflow. Caller holds t.mu.
func (t *Tracer) ensureActiveLocked(id uint64) {
	if _, ok := t.active[id]; ok {
		return
	}
	if at, ok := t.doneAt[id]; ok && t.done[at].ID == id {
		return // late spans for a completed trace append there
	}
	for len(t.active) >= t.cfg.MaxActive && len(t.order) > 0 {
		victim := t.order[0]
		t.order = t.order[1:]
		if rec, ok := t.active[victim]; ok {
			delete(t.active, victim)
			t.evicted++
			t.pushDoneLocked(*rec)
		}
	}
	t.active[id] = &Record{ID: id}
	t.order = append(t.order, id)
}

// addSpan appends a finished span to its trace — active or recently
// completed — or drops it.
func (t *Tracer) addSpan(s *Span) {
	if t == nil {
		return
	}
	span := *s
	span.tracer, span.clock = nil, nil
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec, ok := t.active[span.Trace]; ok {
		if len(rec.Spans) >= t.cfg.MaxSpans {
			t.droppedSpans++
			return
		}
		rec.Spans = append(rec.Spans, span)
		t.spans++
		return
	}
	if at, ok := t.doneAt[span.Trace]; ok && t.done[at].ID == span.Trace {
		// The trace already completed (the other side closed it first);
		// keep the late span so shared-tracer timelines stay whole.
		if len(t.done[at].Spans) >= t.cfg.MaxSpans {
			t.droppedSpans++
			return
		}
		t.done[at].Spans = append(t.done[at].Spans, span)
		t.spans++
		return
	}
	t.droppedSpans++
}

// EndTrace moves a trace from assembly to the completed ring. Idempotent:
// ending an already-completed or unknown trace is a no-op, so both sides of
// a shared tracer may call it.
func (t *Tracer) EndTrace(id uint64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.active[id]
	if !ok {
		return
	}
	delete(t.active, id)
	t.completed++
	t.pushDoneLocked(*rec)
}

// pushDoneLocked appends a record to the circular completed ring. Caller
// holds t.mu.
func (t *Tracer) pushDoneLocked(rec Record) {
	at := t.donePtr
	if old := t.done[at]; old.ID != 0 {
		delete(t.doneAt, old.ID)
	}
	t.done[at] = rec
	t.doneAt[rec.ID] = at
	t.donePtr = (t.donePtr + 1) % len(t.done)
	if t.doneN < len(t.done) {
		t.doneN++
	}
}

// Completed returns copies of the completed traces, oldest first, each
// record's spans in canonical order.
func (t *Tracer) Completed() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, t.doneN)
	start := (t.donePtr - t.doneN + len(t.done)) % len(t.done)
	for i := 0; i < t.doneN; i++ {
		rec := t.done[(start+i)%len(t.done)]
		rec.Spans = append([]Span(nil), rec.Spans...)
		sortSpans(rec.Spans)
		out = append(out, rec)
	}
	return out
}

// sortSpans puts a record copy's spans in canonical order. Spans are stored
// in finish order, which depends on real goroutine interleaving even when
// timestamps come from a simulated clock; read paths sort by the virtual
// timeline instead so a seeded netsim run renders byte-identical traces
// every time.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(a, b int) bool {
		x, y := &spans[a], &spans[b]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.End != y.End {
			return x.End < y.End
		}
		if x.Name != y.Name {
			return x.Name < y.Name
		}
		if x.Session != y.Session {
			return x.Session < y.Session
		}
		if x.File != y.File {
			return x.File < y.File
		}
		return x.Detail < y.Detail
	})
}

// Slowest returns up to n completed traces ordered slowest first (duration
// descending, trace id ascending on ties — a total, deterministic order).
// n <= 0 returns all.
func (t *Tracer) Slowest(n int) []Record {
	recs := t.Completed()
	sort.Slice(recs, func(a, b int) bool {
		da, db := recs[a].Duration(), recs[b].Duration()
		if da != db {
			return da > db
		}
		return recs[a].ID < recs[b].ID
	})
	if n > 0 && len(recs) > n {
		recs = recs[:n]
	}
	return recs
}

// Lookup finds a completed trace by id.
func (t *Tracer) Lookup(id uint64) (Record, bool) {
	if t == nil {
		return Record{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.doneAt[id]
	if !ok || t.done[at].ID != id {
		return Record{}, false
	}
	rec := t.done[at]
	rec.Spans = append([]Span(nil), rec.Spans...)
	sortSpans(rec.Spans)
	return rec, true
}

// Stats returns the tracer's lifetime counters. Nil-safe (zero Stats).
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Minted:       t.minted,
		Unsampled:    t.unsampled,
		Spans:        t.spans,
		DroppedSpans: t.droppedSpans,
		Completed:    t.completed,
		Evicted:      t.evicted,
		Active:       len(t.active),
	}
}
