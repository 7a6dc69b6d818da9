package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonEndpoints builds shadowd and runs it as an operator would: first
// one process with its admin endpoint, then three joined into a cluster,
// each reading its peers' admin endpoints. It checks what an operator reads
// there: health, the metric families, the trace and flight pages, and a fleet
// view of three healthy members whose merged counters are the members' sums.
func TestDaemonEndpoints(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "shadowd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	t.Run("one", func(t *testing.T) {
		admin := freeAddr(t)
		stop := startDaemon(t, bin, "-addr", freeAddr(t), "-admin", admin, "-log-level", "info", "-trace", "all")
		defer stop()
		base := "http://" + admin
		waitHealthy(t, base)

		var health struct{ Status string }
		getJSON(t, base+"/healthz", &health)
		if health.Status != "ok" {
			t.Errorf("/healthz status %q, want ok", health.Status)
		}
		metrics := get(t, base+"/metrics")
		for _, want := range []string{
			"\nshadow_delta_bytes_total",
			"\nshadow_rehydrations_total",
			"\nshadow_cache_dedup_ratio",
			"\n# TYPE shadow_cycle_seconds histogram",
			`shadow_cycle_seconds_bucket{le="+Inf"}`,
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("/metrics lacks %q", strings.TrimPrefix(want, "\n"))
			}
		}
		get(t, base+"/cachez")
		get(t, base+"/sessionz?format=json")
		get(t, base+"/flightz")
		if tracez := get(t, base+"/tracez"); !strings.Contains(tracez, "cycle traces:") {
			t.Errorf("/tracez lacks its cycle traces line:\n%s", tracez)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		names := []string{"super1", "super2", "super3"}
		addrs, admins := make([]string, 3), make([]string, 3)
		var peers []string
		for i, name := range names {
			addrs[i], admins[i] = freeAddr(t), freeAddr(t)
			peers = append(peers, name+"="+addrs[i])
		}
		for i, name := range names {
			var peerAdmin []string
			for j, other := range names {
				if j != i {
					peerAdmin = append(peerAdmin, other+"="+admins[j])
				}
			}
			stop := startDaemon(t, bin, "-addr", addrs[i], "-admin", admins[i],
				"-peers", strings.Join(peers, ","), "-instance", name,
				"-peer-admin", strings.Join(peerAdmin, ","), "-name", name, "-trace", "all")
			defer stop()
		}
		for _, a := range admins {
			waitHealthy(t, "http://"+a)
		}
		base := "http://" + admins[0]

		page := get(t, base+"/clusterz")
		for _, want := range []string{"super2", "super3", "fleet latency"} {
			if !strings.Contains(page, want) {
				t.Errorf("/clusterz lacks %q:\n%s", want, page)
			}
		}
		get(t, "http://"+admins[1]+"/clusterz.json?scope=self")
		get(t, base+"/peerz")

		var view struct {
			Fleet struct {
				Members, Healthy int
				Counters         map[string]int64
			}
			Members []struct {
				Member   string
				Healthy  bool
				Counters map[string]int64
			}
			Ring struct{ Members []string }
		}
		getJSON(t, base+"/clusterz.json", &view)
		if view.Fleet.Members != 3 || view.Fleet.Healthy != 3 {
			t.Errorf("fleet %d members, %d healthy; want 3 of 3", view.Fleet.Members, view.Fleet.Healthy)
		}
		var seen []string
		for _, m := range view.Members {
			seen = append(seen, m.Member)
			if !m.Healthy {
				t.Errorf("member %s unhealthy", m.Member)
			}
		}
		sort.Strings(seen)
		if !reflect.DeepEqual(seen, names) {
			t.Errorf("members %v, want %v", seen, names)
		}
		// The merged counters equal the member sums, field by field
		// (metrics.Snapshot has no json tags, so keys are Go field names).
		if len(view.Fleet.Counters) == 0 {
			t.Error("fleet view carries no counters")
		}
		for field, total := range view.Fleet.Counters {
			var sum int64
			for _, m := range view.Members {
				sum += m.Counters[field]
			}
			if total != sum {
				t.Errorf("%s: fleet %d, member sum %d", field, total, sum)
			}
		}
		ring := append([]string(nil), view.Ring.Members...)
		sort.Strings(ring)
		if !reflect.DeepEqual(ring, names) {
			t.Errorf("ring members %v, want %v", view.Ring.Members, names)
		}
	})
}

// freeAddr returns a loopback address nothing listens on at the moment.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startDaemon starts bin with args and returns a function that stops it with
// SIGTERM, as an operator would, and waits for it to exit. The daemon's log
// is printed if the test fails.
func startDaemon(t *testing.T, bin string, args ...string) (stop func()) {
	t.Helper()
	var log bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &log, &log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			t.Errorf("shadowd %v did not exit on SIGTERM", args)
		}
		if t.Failed() {
			t.Logf("shadowd %v log:\n%s", args, log.String())
		}
	}
}

// waitHealthy polls base's /healthz until it answers.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s/healthz did not answer within 10 s: %v", base, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// get fetches url and returns its body, failing the test unless it is 200 OK.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(get(t, url)), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
