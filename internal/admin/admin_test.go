package admin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shadowedit/internal/obs"
	"shadowedit/internal/server"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

func newTestHandler(t *testing.T) (*server.Server, http.Handler) {
	t.Helper()
	cfg := server.Defaults("admin-test")
	cfg.Obs = obs.New(nil, nil)
	srv := server.New(cfg)
	t.Cleanup(func() { srv.Close() })
	return srv, NewHandler(Options{Server: srv})
}

func get(t *testing.T, h http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read %s body: %v", path, err)
	}
	return res.StatusCode, string(body), res.Header
}

func TestHealthz(t *testing.T) {
	_, h := newTestHandler(t)
	code, body, hdr := get(t, h, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("/healthz content type = %q", ct)
	}
	var v struct {
		Status   string `json:"status"`
		Server   string `json:"server"`
		Sessions int    `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if v.Status != "ok" || v.Server != "admin-test" {
		t.Fatalf("/healthz = %+v", v)
	}
}

func TestMetricsContent(t *testing.T) {
	srv, h := newTestHandler(t)

	// Give the counters and one histogram something to show.
	srv.Observer().SubmitAck.Observe(3 * time.Millisecond)
	srv.Observer().Cycle.Observe(250 * time.Millisecond)
	id := srv.Directory().Intern(wire.FileRef{Domain: "d", FileID: "ws:/home/u/a.c"})
	if err := srv.Cache().Put(id, 1, []byte("hello")); err != nil {
		t.Fatal(err)
	}

	code, body, hdr := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	// Every Snapshot counter must be present, plus gauges and histograms.
	for _, want := range []string{
		"shadow_delta_bytes_total", "shadow_full_bytes_total",
		"shadow_control_bytes_total", "shadow_output_bytes_total",
		"shadow_messages_total", "shadow_delta_sends_total",
		"shadow_full_sends_total",
		"shadow_cache_hits_total", "shadow_cache_misses_total",
		"shadow_cache_evictions_total", "shadow_cache_rejected_total",
		"shadow_pulls_issued_total", "shadow_pulls_deferred_total",
		"shadow_pulls_coalesced_total", "shadow_reconnects_total",
		"shadow_retries_total", "shadow_full_fallbacks_total",
		"shadow_sessions", "shadow_cache_bytes 5", "shadow_cache_entries 1",
		"shadow_jobs{state=\"queued\"}",
		"shadow_jobs_live 0", "shadow_jobs_unacked 0", "shadow_jobs_unacked_bytes 0",
		"# TYPE shadow_jobs_retired_total counter", "shadow_jobs_retired_total 0",
		"# TYPE shadow_submit_ack_seconds histogram",
		"shadow_submit_ack_seconds_count 1",
		"shadow_cycle_seconds_count 1",
		"le=\"+Inf\"",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Histogram bucket lines must be cumulative and end at the count.
	if !strings.Contains(body, "shadow_submit_ack_seconds_bucket{le=\"+Inf\"} 1") {
		t.Errorf("submit_ack +Inf bucket wrong:\n%s", body)
	}
}

func TestCachezConcurrent(t *testing.T) {
	srv, h := newTestHandler(t)

	// Hammer the cache from writers while readers scrape /cachez — the
	// snapshot path must be race-free (run under -race in CI).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				ref := wire.FileRef{Domain: "d", FileID: fmt.Sprintf("ws:/f%d-%d", w, i%64)}
				id := srv.Directory().Intern(ref)
				_ = srv.Cache().Put(id, uint64(i), []byte(strings.Repeat("x", 64)))
				if i%3 == 0 {
					_, _ = srv.Cache().Get(id)
				}
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		code, body, _ := get(t, h, "/cachez")
		if code != http.StatusOK {
			t.Fatalf("/cachez status = %d", code)
		}
		if !strings.Contains(body, "shadow cache:") {
			t.Fatalf("/cachez body unexpected:\n%s", body)
		}
		code, body, _ = get(t, h, "/cachez?format=json")
		if code != http.StatusOK {
			t.Fatalf("/cachez json status = %d", code)
		}
		var v cacheView
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("/cachez json: %v", err)
		}
	}
	wg.Wait()

	// After the dust settles, the JSON view should name interned files.
	_, body, _ := get(t, h, "/cachez?format=json")
	var v cacheView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Entries == 0 || len(v.Files) == 0 {
		t.Fatalf("expected cached entries, got %+v", v)
	}
	if v.Files[0].File == "" {
		t.Fatalf("cache entry missing reverse-resolved name: %+v", v.Files[0])
	}
}

func TestMetricsCanonicalBuckets(t *testing.T) {
	srv, h := newTestHandler(t)
	srv.Observer().SubmitAck.Observe(3 * time.Millisecond)

	_, body, _ := get(t, h, "/metrics")
	// The export grid is fixed: every instance emits the same 32 le bounds
	// (2^12..2^43 ns), occupied or not, so fleets aggregate bucket-by-bucket.
	var bucketLines int
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "shadow_submit_ack_seconds_bucket{") &&
			!strings.Contains(line, "+Inf") {
			bucketLines++
		}
	}
	if want := histHiExp - histLoExp + 1; bucketLines != want {
		t.Fatalf("submit_ack bucket lines = %d, want the fixed grid of %d", bucketLines, want)
	}
	// 3ms < 2^22 ns (~4.19ms): that bound and every later one must already
	// hold the sample, cumulatively.
	if !strings.Contains(body, "shadow_submit_ack_seconds_bucket{le=\"0.004194304\"} 1") {
		t.Fatalf("cumulative count missing at the 2^22ns bound:\n%s", body)
	}
	if !strings.Contains(body, "shadow_submit_ack_seconds_bucket{le=\"0.002097152\"} 0") {
		t.Fatalf("bound below the sample should read 0:\n%s", body)
	}
}

// newTracedHandler builds a handler over a server whose observer has a
// tracer attached, plus the observer for minting test traces.
func newTracedHandler(t *testing.T) (*server.Server, *obs.Observer, http.Handler) {
	t.Helper()
	cfg := server.Defaults("admin-trace-test")
	cfg.Obs = obs.New(nil, nil)
	cfg.Obs.SetTracer(trace.New(trace.Config{}))
	srv := server.New(cfg)
	t.Cleanup(func() { srv.Close() })
	return srv, cfg.Obs, NewHandler(Options{Server: srv})
}

func TestTracez(t *testing.T) {
	_, o, h := newTracedHandler(t)

	// Assemble one completed trace through the observer hooks.
	root := o.StartTrace("cycle")
	child := o.StartSpan(root.Context(), "server.pull").SetSession(7).SetFile("d//ws:/a.c").Annotate("immediate")
	child.Finish()
	root.SetJob(3).Finish()
	o.EndTrace(root.Context())

	code, body, _ := get(t, h, "/tracez")
	if code != http.StatusOK || !strings.Contains(body, "cycle traces: 1 completed") {
		t.Fatalf("/tracez = %d:\n%s", code, body)
	}
	if !strings.Contains(body, "job=3") {
		t.Fatalf("/tracez list missing job attribution:\n%s", body)
	}

	id := fmt.Sprintf("%d", root.Trace)
	code, body, _ = get(t, h, "/tracez?id="+id)
	if code != http.StatusOK || !strings.Contains(body, "server.pull") || !strings.Contains(body, "(immediate)") {
		t.Fatalf("/tracez?id = %d:\n%s", code, body)
	}

	code, body, hdr := get(t, h, "/tracez?id="+id+"&format=chrome")
	if code != http.StatusOK {
		t.Fatalf("/tracez chrome = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("chrome export content type = %q", ct)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  uint64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("chrome export not JSON: %v\n%s", err, body)
	}
	if len(chrome.TraceEvents) != 2 || chrome.TraceEvents[0].Ph != "X" {
		t.Fatalf("chrome export events = %+v", chrome.TraceEvents)
	}

	code, body, _ = get(t, h, "/tracez?id="+id+"&format=json")
	if code != http.StatusOK {
		t.Fatalf("/tracez json = %d", code)
	}
	var rec trace.Record
	if err := json.Unmarshal([]byte(body), &rec); err != nil || len(rec.Spans) != 2 {
		t.Fatalf("/tracez json record: %v / %+v", err, rec)
	}

	if code, _, _ := get(t, h, "/tracez?id=999999"); code != http.StatusNotFound {
		t.Fatalf("unknown trace id = %d, want 404", code)
	}
	if code, _, _ := get(t, h, "/tracez?id=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad trace id = %d, want 400", code)
	}
}

func TestTracezDisabled(t *testing.T) {
	_, h := newTestHandler(t)
	code, body, _ := get(t, h, "/tracez")
	if code != http.StatusOK || !strings.Contains(body, "tracing disabled") {
		t.Fatalf("/tracez without tracer = %d:\n%s", code, body)
	}
}

func TestFlightz(t *testing.T) {
	_, _, h := newTracedHandler(t)
	code, body, _ := get(t, h, "/flightz")
	if code != http.StatusOK || !strings.Contains(body, "0 live session recorders, 0 retained dumps") {
		t.Fatalf("/flightz = %d:\n%s", code, body)
	}
	code, body, _ = get(t, h, "/flightz?format=json")
	if code != http.StatusOK {
		t.Fatalf("/flightz json = %d", code)
	}
	var v flightzView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/flightz json: %v", err)
	}
}

func TestSessionzAndPprof(t *testing.T) {
	_, h := newTestHandler(t)
	code, body, _ := get(t, h, "/sessionz")
	if code != http.StatusOK || !strings.Contains(body, "sessions attached") ||
		!strings.Contains(body, "job table: live=0 unacked=0 unacked-bytes=0 retired=0") {
		t.Fatalf("/sessionz = %d:\n%s", code, body)
	}
	code, body, _ = get(t, h, "/sessionz?format=json")
	if code != http.StatusOK {
		t.Fatalf("/sessionz json = %d", code)
	}
	var v sessionView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/sessionz json: %v", err)
	}
	code, _, _ = get(t, h, "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}
