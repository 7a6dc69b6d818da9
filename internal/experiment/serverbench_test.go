package experiment

import (
	"testing"
)

// TestVirtualPassDeterministic: the server figure's virtual latencies must be
// byte-identical run over run — that is the whole point of replaying each
// session alone on its own simulated network.
func TestVirtualPassDeterministic(t *testing.T) {
	cfg := ServerBenchConfig{
		Sessions: 2,
		Cycles:   3,
		FileSize: 4 * 1024,
	}

	a, err := RunVirtualLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunVirtualLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != uint64(cfg.Sessions*cfg.Cycles) {
		t.Fatalf("virtual pass count = %d, want %d", a.Count, cfg.Sessions*cfg.Cycles)
	}
	if a.Count != b.Count || a.Sum != b.Sum || a.Counts != b.Counts {
		t.Fatalf("virtual pass not deterministic:\n  run 1: count=%d sum=%d\n  run 2: count=%d sum=%d",
			a.Count, a.Sum, b.Count, b.Sum)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q%.2f differs between runs: %v vs %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
	if a.Quantile(0.5) <= 0 {
		t.Fatalf("virtual p50 = %v, want > 0 (simulated links have latency)", a.Quantile(0.5))
	}
}

// TestServerBenchNetsimEmitsVirtualPercentiles: the server figure yields
// ordered, nonzero virtual percentiles, one observation per cycle.
func TestServerBenchNetsimEmitsVirtualPercentiles(t *testing.T) {
	snap, err := RunVirtualLatency(ServerBenchConfig{
		Sessions: 2,
		Cycles:   3,
		FileSize: 4 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	p50, p90, p99 := snap.Quantile(0.50), snap.Quantile(0.90), snap.Quantile(0.99)
	if snap.Count != 6 || p50 <= 0 || p50 > p90 || p90 > p99 {
		t.Fatalf("virtual percentiles over %d cycles: p50 %v, p90 %v, p99 %v", snap.Count, p50, p90, p99)
	}
}
