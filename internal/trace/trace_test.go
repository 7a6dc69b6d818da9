package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"shadowedit/internal/wire"
)

// fakeClock is a manually advanced observer clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestTraceAssembly(t *testing.T) {
	tr := New(Config{})
	clk := &fakeClock{}

	root := tr.StartTrace("cycle", clk.Now)
	if root == nil {
		t.Fatal("StartTrace returned nil with Sample=1")
	}
	if !root.Context().Valid() {
		t.Fatal("root context invalid")
	}
	clk.Advance(5 * time.Millisecond)

	child := tr.StartSpan(root.Context(), "server.pull", clk.Now)
	child.SetSession(7).SetFile("d//f").Annotate("pull-immediate")
	clk.Advance(3 * time.Millisecond)
	child.Finish()
	clk.Advance(2 * time.Millisecond)
	root.Finish()
	tr.EndTrace(root.Trace)

	recs := tr.Completed()
	if len(recs) != 1 {
		t.Fatalf("Completed = %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID != root.Trace {
		t.Fatalf("record id %d, want %d", rec.ID, root.Trace)
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(rec.Spans))
	}
	if rec.Name() != "cycle" {
		t.Fatalf("Name = %q, want cycle", rec.Name())
	}
	if rec.Duration() != 10*time.Millisecond {
		t.Fatalf("Duration = %v, want 10ms", rec.Duration())
	}
	// Canonical order: spans sort by start time, so the root (t=0) comes
	// before the child (t=5ms) even though the child finished first.
	if rec.Spans[0].Name != "cycle" || rec.Spans[0].Parent != 0 {
		t.Fatalf("first span = %+v", rec.Spans[0])
	}
	if rec.Spans[1].Name != "server.pull" || rec.Spans[1].Parent != root.ID {
		t.Fatalf("second span = %+v", rec.Spans[1])
	}
	if rec.Spans[1].Session != 7 || rec.Spans[1].File != "d//f" || rec.Spans[1].Detail != "pull-immediate" {
		t.Fatalf("attributes lost: %+v", rec.Spans[1])
	}

	st := tr.Stats()
	if st.Minted != 1 || st.Spans != 2 || st.Completed != 1 || st.Active != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	clk := &fakeClock{}
	sp := tr.StartTrace("cycle", clk.Now)
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	// The nil span absorbs the whole instrumentation chain.
	sp.SetSession(1).SetJob(2).SetFile("f").Annotate("x").Finish()
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	if tr.StartSpan(wire.TraceContext{TraceID: 9, SpanID: 1}, "s", clk.Now) != nil {
		t.Fatal("nil tracer started a child span")
	}
	tr.EndTrace(9)
	if tr.Completed() != nil || tr.Slowest(5) != nil {
		t.Fatal("nil tracer returned records")
	}
	if tr.Stats() != (Stats{}) {
		t.Fatal("nil tracer has stats")
	}
	if _, ok := tr.Lookup(9); ok {
		t.Fatal("nil tracer found a record")
	}

	// Live tracer, invalid parent: also a nil span.
	live := New(Config{})
	if live.StartSpan(wire.TraceContext{}, "s", clk.Now) != nil {
		t.Fatal("invalid parent produced a span")
	}
}

func TestSampling(t *testing.T) {
	tr := New(Config{Sample: 3})
	clk := &fakeClock{}
	var minted int
	for i := 0; i < 9; i++ {
		if sp := tr.StartTrace("cycle", clk.Now); sp != nil {
			minted++
			sp.Finish()
			tr.EndTrace(sp.Trace)
		}
	}
	if minted != 3 {
		t.Fatalf("minted %d of 9 with Sample=3, want 3", minted)
	}
	st := tr.Stats()
	if st.Minted != 3 || st.Unsampled != 6 {
		t.Fatalf("stats = %+v", st)
	}
	// Propagated contexts are always honored regardless of rate: the
	// minting side already made the sampling decision.
	sp := tr.StartSpan(wire.TraceContext{TraceID: 424242, SpanID: 1}, "server.pull", clk.Now)
	if sp == nil {
		t.Fatal("propagated context was re-sampled away")
	}
	sp.Finish()
}

func TestEndTraceIdempotentAndLateSpans(t *testing.T) {
	tr := New(Config{})
	clk := &fakeClock{}
	root := tr.StartTrace("cycle", clk.Now)
	root.Finish()
	tr.EndTrace(root.Trace)
	tr.EndTrace(root.Trace) // second end: no-op
	tr.EndTrace(99999)      // unknown: no-op

	// A span finishing after EndTrace still lands in the completed record
	// (the other side of a shared tracer may close the trace first).
	late := tr.StartSpan(root.Context(), "server.output", clk.Now)
	late.Finish()

	rec, ok := tr.Lookup(root.Trace)
	if !ok {
		t.Fatal("completed trace not found")
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("spans = %d, want 2 (late span lost)", len(rec.Spans))
	}
	if tr.Stats().Completed != 1 {
		t.Fatalf("Completed = %d, want 1", tr.Stats().Completed)
	}
}

func TestActiveEviction(t *testing.T) {
	tr := New(Config{MaxActive: 4, Capacity: 8})
	clk := &fakeClock{}
	var spans []*Span
	for i := 0; i < 6; i++ {
		spans = append(spans, tr.StartTrace("cycle", clk.Now))
	}
	st := tr.Stats()
	if st.Active != 4 {
		t.Fatalf("Active = %d, want 4", st.Active)
	}
	if st.Evicted != 2 {
		t.Fatalf("Evicted = %d, want 2", st.Evicted)
	}
	// The evicted traces are in the completed ring (empty but present).
	if _, ok := tr.Lookup(spans[0].Trace); !ok {
		t.Fatal("evicted trace not in completed ring")
	}
}

func TestCompletedRingEviction(t *testing.T) {
	tr := New(Config{Capacity: 4})
	clk := &fakeClock{}
	var ids []uint64
	for i := 0; i < 6; i++ {
		sp := tr.StartTrace("cycle", clk.Now)
		sp.Finish()
		tr.EndTrace(sp.Trace)
		ids = append(ids, sp.Trace)
	}
	recs := tr.Completed()
	if len(recs) != 4 {
		t.Fatalf("Completed = %d, want 4", len(recs))
	}
	if recs[0].ID != ids[2] || recs[3].ID != ids[5] {
		t.Fatalf("ring holds %d..%d, want %d..%d", recs[0].ID, recs[3].ID, ids[2], ids[5])
	}
	if _, ok := tr.Lookup(ids[0]); ok {
		t.Fatal("evicted record still found")
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr := New(Config{MaxSpans: 3})
	clk := &fakeClock{}
	root := tr.StartTrace("cycle", clk.Now)
	for i := 0; i < 5; i++ {
		tr.StartSpan(root.Context(), "s", clk.Now).Finish()
	}
	root.Finish()
	tr.EndTrace(root.Trace)
	rec, _ := tr.Lookup(root.Trace)
	if len(rec.Spans) != 3 {
		t.Fatalf("spans = %d, want 3 (cap)", len(rec.Spans))
	}
	if tr.Stats().DroppedSpans != 3 {
		t.Fatalf("DroppedSpans = %d, want 3", tr.Stats().DroppedSpans)
	}
}

func TestSlowestOrdering(t *testing.T) {
	tr := New(Config{})
	clk := &fakeClock{}
	durations := []time.Duration{3 * time.Millisecond, 9 * time.Millisecond, 1 * time.Millisecond}
	for _, d := range durations {
		sp := tr.StartTrace("cycle", clk.Now)
		clk.Advance(d)
		sp.Finish()
		tr.EndTrace(sp.Trace)
	}
	recs := tr.Slowest(2)
	if len(recs) != 2 {
		t.Fatalf("Slowest(2) = %d records", len(recs))
	}
	if recs[0].Duration() != 9*time.Millisecond || recs[1].Duration() != 3*time.Millisecond {
		t.Fatalf("order = %v, %v", recs[0].Duration(), recs[1].Duration())
	}
}

func TestOriginInTraceID(t *testing.T) {
	tr := New(Config{Origin: 0xBEEF})
	clk := &fakeClock{}
	sp := tr.StartTrace("cycle", clk.Now)
	if sp.Trace>>40 != 0xBEEF {
		t.Fatalf("trace id %x missing origin high bits", sp.Trace)
	}
}

func TestTracerConcurrency(t *testing.T) {
	tr := New(Config{Capacity: 32, MaxActive: 64})
	clk := &fakeClock{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := tr.StartTrace("cycle", clk.Now)
				child := tr.StartSpan(root.Context(), "server.pull", clk.Now)
				child.Finish()
				root.Finish()
				tr.EndTrace(root.Trace)
			}
		}()
	}
	wg.Wait()
	st := tr.Stats()
	if st.Minted != 1600 {
		t.Fatalf("Minted = %d, want 1600", st.Minted)
	}
	if st.Completed+st.Evicted != 1600 {
		t.Fatalf("Completed+Evicted = %d, want 1600", st.Completed+st.Evicted)
	}
}

func TestRingBasics(t *testing.T) {
	r := NewRing(4) // rounds up to 16
	if r.Len() != 0 || r.Snapshot() != nil && len(r.Snapshot()) != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := 0; i < 20; i++ {
		r.Record(Event{At: int64(i), Kind: "recv", Name: "NOTIFY"})
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("Snapshot = %d events, want 16", len(evs))
	}
	if evs[0].At != 4 || evs[15].At != 19 {
		t.Fatalf("window = [%d..%d], want [4..19]", evs[0].At, evs[15].At)
	}
	if r.Len() != 16 {
		t.Fatalf("Len = %d, want 16", r.Len())
	}
}

func TestRingNil(t *testing.T) {
	var r *Ring
	r.Record(Event{Kind: "recv"})
	if r.Snapshot() != nil || r.Len() != 0 {
		t.Fatal("nil ring returned events")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				r.Record(Event{At: int64(g*10000 + i), Kind: "send", Name: "PULL"})
			}
		}(g)
	}
	// A concurrent reader snapshots while writers race; every observed
	// event must be whole (never torn), which the race detector also
	// verifies at the memory level.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.Snapshot() {
				if ev.Kind != "send" || ev.Name != "PULL" {
					t.Errorf("torn event: %+v", ev)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if got := r.Len(); got != 64 {
		t.Fatalf("Len = %d, want 64", got)
	}
}

func TestWriteChrome(t *testing.T) {
	rec := Record{ID: 7, Spans: []Span{
		{Trace: 7, ID: 1, Name: "cycle", Start: 0, End: 10 * time.Millisecond},
		{Trace: 7, ID: 2, Parent: 1, Name: "server.pull", Session: 3,
			File: "d//f", Detail: "delta", Start: time.Millisecond, End: 4 * time.Millisecond},
	}}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(out.TraceEvents))
	}
	ev := out.TraceEvents[1]
	if ev["ph"] != "X" || ev["name"] != "server.pull" {
		t.Fatalf("event = %v", ev)
	}
	if ev["ts"].(float64) != 1000 || ev["dur"].(float64) != 3000 {
		t.Fatalf("ts/dur = %v/%v, want 1000/3000 µs", ev["ts"], ev["dur"])
	}
	if ev["tid"].(float64) != 3 {
		t.Fatalf("tid = %v, want session 3", ev["tid"])
	}
}
