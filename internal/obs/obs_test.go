package obs

import (
	"bytes"
	"log/slog"
	"testing"
	"time"

	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

func TestNilObserverIsSafeAndFree(t *testing.T) {
	var o *Observer
	if o.Now() != 0 {
		t.Fatal("nil observer Now() != 0")
	}
	o.ObserveSubmitAck(0)
	o.ObservePullArrival(0)
	o.ObserveJobLifetime(0)
	o.ObserveCycle(0)
	if o.LogEnabled(slog.LevelError) {
		t.Fatal("nil observer reports logging enabled")
	}
	o.Log(slog.LevelInfo, "ignored")
	if o.Logger() != nil {
		t.Fatal("nil observer has a logger")
	}

	// The disabled path is the session hot path with observability off: it
	// must not allocate.
	allocs := testing.AllocsPerRun(1000, func() {
		start := o.Now()
		o.ObserveSubmitAck(start)
		o.ObservePullArrival(start)
		o.ObserveJobLifetime(start)
		o.ObserveCycle(start)
		if o.LogEnabled(slog.LevelDebug) {
			o.Log(slog.LevelDebug, "pull", slog.Uint64("session", 1))
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f times per op, want 0", allocs)
	}
}

func TestEnabledHistogramPathDoesNotAllocate(t *testing.T) {
	o := New(nil, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		start := o.Now()
		o.ObserveSubmitAck(start)
		o.ObserveCycle(start)
	})
	if allocs != 0 {
		t.Fatalf("histogram recording allocates %.1f times per op, want 0", allocs)
	}
}

func TestObserverClockAndLogging(t *testing.T) {
	var vt time.Duration
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	o := New(logger, func() time.Duration { return vt })

	start := o.Now()
	vt = 250 * time.Millisecond
	o.ObserveCycle(start)
	snap := o.Cycle.Snapshot()
	if snap.Count != 1 {
		t.Fatalf("cycle count = %d, want 1", snap.Count)
	}
	if q := snap.Quantile(0.5); q < 230*time.Millisecond || q > 270*time.Millisecond {
		t.Fatalf("cycle p50 = %v, want ~250ms", q)
	}

	if !o.LogEnabled(slog.LevelDebug) {
		t.Fatal("debug logging should be enabled")
	}
	o.Log(slog.LevelInfo, "pull issued", slog.Uint64("session", 7), slog.String("file", "dom/f1"))
	if got := buf.String(); !bytes.Contains([]byte(got), []byte("pull issued")) ||
		!bytes.Contains([]byte(got), []byte("session=7")) {
		t.Fatalf("structured event not emitted: %q", got)
	}
}

// BenchmarkDisabledInstrumentation measures the instrumented hot-path
// pattern with observability off — the acceptance bar is zero allocations
// (run with -benchmem).
func BenchmarkDisabledInstrumentation(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := o.Now()
		o.ObserveSubmitAck(start)
		if o.LogEnabled(slog.LevelDebug) {
			o.Log(slog.LevelDebug, "submit", slog.Uint64("job", uint64(i)))
		}
	}
}

// BenchmarkEnabledHistogram measures recording cost with histograms live.
func BenchmarkEnabledHistogram(b *testing.B) {
	o := New(nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.ObserveSubmitAck(o.Now())
	}
}

func TestObserverTracerHooks(t *testing.T) {
	var now time.Duration
	o := New(nil, func() time.Duration { return now })

	// No tracer attached: every hook is inert.
	if o.Tracer() != nil || o.StartTrace("cycle") != nil {
		t.Fatal("tracing active without a tracer")
	}
	if o.StartSpan(wire.TraceContext{TraceID: 1, SpanID: 1}, "s") != nil {
		t.Fatal("StartSpan active without a tracer")
	}
	o.EndTrace(wire.TraceContext{TraceID: 1})

	tr := trace.New(trace.Config{})
	o.SetTracer(tr)
	if o.Tracer() != tr {
		t.Fatal("Tracer() lost the tracer")
	}
	root := o.StartTrace("cycle")
	if root == nil {
		t.Fatal("StartTrace nil with tracer attached")
	}
	now = 5 * time.Millisecond
	child := o.StartSpan(root.Context(), "server.pull")
	now = 8 * time.Millisecond
	child.Finish()
	root.Finish()
	o.EndTrace(root.Context())
	o.EndTrace(root.Context()) // idempotent

	rec, ok := tr.Lookup(root.Trace)
	if !ok || len(rec.Spans) != 2 {
		t.Fatalf("trace = %+v, %v", rec, ok)
	}
	// Spans were stamped by the observer's clock; Lookup returns them in
	// canonical start order, so the root (started at 0) comes first.
	if rec.Spans[0].Name != "cycle" || rec.Spans[0].End != 8*time.Millisecond {
		t.Fatalf("root span = %q %v..%v, want cycle ..8ms", rec.Spans[0].Name, rec.Spans[0].Start, rec.Spans[0].End)
	}
	if rec.Spans[1].Start != 5*time.Millisecond || rec.Spans[1].End != 8*time.Millisecond {
		t.Fatalf("span stamps = %v..%v, want 5ms..8ms", rec.Spans[1].Start, rec.Spans[1].End)
	}

	// Nil observer: all hooks inert.
	var n *Observer
	n.SetTracer(tr)
	if n.Tracer() != nil || n.StartTrace("x") != nil {
		t.Fatal("nil observer traced")
	}
	n.EndTrace(root.Context())
}

// Logger returns the underlying structured logger (nil when logging is
// disabled or the observer is nil).
func (o *Observer) Logger() *slog.Logger {
	if o == nil {
		return nil
	}
	return o.logger
}
