// Package obs is the observability layer shared by the server, the client
// and the bench harness: structured event logging (log/slog, leveled, with
// per-session and per-file attribution) plus lock-free latency histograms
// for the paper's central observable — how long the edit–submit–fetch cycle
// and its component legs take.
//
// The paper evaluates shadow editing by per-cycle elapsed time and traffic
// breakdown; internal/metrics carries the aggregate counters, and this
// package adds the distributions: submit→ack, pull→arrival, job
// queue→complete, and full-cycle latency, each with mergeable p50/p90/p99.
//
// Everything is opt-in and nil-safe: a nil *Observer is a valid, disabled
// observer whose methods return immediately, so instrumented hot paths pay
// one pointer test and zero allocations when observability is off. Event
// logging is additionally guarded by LogEnabled so callers never build
// slog attributes for a disabled or filtered level.
package obs

import (
	"context"
	"log/slog"
	"time"

	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// Observer carries an instrumentation configuration: an optional structured
// logger and a monotonic clock, plus the service's latency histograms.
// Construct with New; a nil *Observer disables everything.
type Observer struct {
	logger *slog.Logger
	clock  func() time.Duration
	tracer *trace.Tracer

	// SubmitAck is the server-side latency from receiving a SUBMIT to
	// enqueueing its SUBMIT_OK — the user-visible submission ack time.
	SubmitAck Histogram
	// PullArrival is the server-side latency from issuing a PULL to the
	// requested content arriving (delta applied or full copy stored).
	PullArrival Histogram
	// JobLifetime is the latency from a job becoming runnable (all inputs
	// in hand, queued for a processor) to its completion.
	JobLifetime Histogram
	// Cycle is the full edit–submit–fetch cycle as the client sees it:
	// submit issued to output delivered.
	Cycle Histogram
}

// New returns an Observer. logger may be nil (no event logging; histograms
// still record). clock supplies monotonic time for histogram stamps — pass
// a netsim host's Now for deterministic virtual-time measurements; nil uses
// the wall clock (monotonic since construction).
func New(logger *slog.Logger, clock func() time.Duration) *Observer {
	o := &Observer{logger: logger, clock: clock}
	if o.clock == nil {
		epoch := time.Now()
		o.clock = func() time.Duration { return time.Since(epoch) }
	}
	return o
}

// Now returns the observer's monotonic time, for later use as a histogram
// stamp. On a nil observer it returns 0 without touching any clock.
func (o *Observer) Now() time.Duration {
	if o == nil {
		return 0
	}
	return o.clock()
}

// ObserveSubmitAck records a submit→ack latency begun at start (a stamp
// from Now). No-op on a nil observer.
func (o *Observer) ObserveSubmitAck(start time.Duration) {
	if o == nil {
		return
	}
	o.SubmitAck.Observe(o.clock() - start)
}

// ObservePullArrival records a pull→arrival latency begun at start.
func (o *Observer) ObservePullArrival(start time.Duration) {
	if o == nil {
		return
	}
	o.PullArrival.Observe(o.clock() - start)
}

// ObserveJobLifetime records a queue→complete latency begun at start.
func (o *Observer) ObserveJobLifetime(start time.Duration) {
	if o == nil {
		return
	}
	o.JobLifetime.Observe(o.clock() - start)
}

// ObserveCycle records a full-cycle latency begun at start.
func (o *Observer) ObserveCycle(start time.Duration) {
	if o == nil {
		return
	}
	o.Cycle.Observe(o.clock() - start)
}

// SetTracer attaches a cycle tracer. Call during setup, before the observer
// is shared across goroutines; a nil tracer (the default) disables tracing
// while histograms and logging keep working. Several observers may share
// one tracer — each stamps its spans with its own clock, which is how an
// in-process simulation assembles client and server spans into one
// virtual-time trace.
func (o *Observer) SetTracer(t *trace.Tracer) {
	if o != nil {
		o.tracer = t
	}
}

// Tracer returns the attached tracer (nil when tracing is off or the
// observer is nil).
func (o *Observer) Tracer() *trace.Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// StartTrace mints a new cycle trace, stamping its root span with this
// observer's clock. Returns nil — a valid, inert span — when the observer
// is nil, tracing is off, or the sampling rate skips this cycle.
func (o *Observer) StartTrace(name string) *trace.Span {
	if o == nil || o.tracer == nil {
		return nil
	}
	return o.tracer.StartTrace(name, o.clock)
}

// StartSpan opens a child span under a propagated wire context, stamped
// with this observer's clock. Returns nil when tracing is off or the
// context is invalid (the peer did not trace this cycle).
func (o *Observer) StartSpan(parent wire.TraceContext, name string) *trace.Span {
	if o == nil || o.tracer == nil {
		return nil
	}
	return o.tracer.StartSpan(parent, name, o.clock)
}

// EndTrace marks a propagated trace complete, moving it to the tracer's
// finished ring. Safe to call from both ends of a cycle — completion is
// idempotent — and a no-op for invalid contexts or disabled tracing.
func (o *Observer) EndTrace(tc wire.TraceContext) {
	if o == nil || o.tracer == nil || !tc.Valid() {
		return
	}
	o.tracer.EndTrace(tc.TraceID)
}

// LogEnabled reports whether events at the given level would be emitted.
// Hot paths guard attribute construction with it, so a disabled observer
// (or a filtered level) costs one branch and no allocation.
func (o *Observer) LogEnabled(level slog.Level) bool {
	return o != nil && o.logger != nil && o.logger.Enabled(context.Background(), level)
}

// Log emits one structured event. Callers on hot paths must guard with
// LogEnabled before building attrs.
func (o *Observer) Log(level slog.Level, msg string, attrs ...slog.Attr) {
	if o == nil || o.logger == nil {
		return
	}
	o.logger.LogAttrs(context.Background(), level, msg, attrs...)
}
