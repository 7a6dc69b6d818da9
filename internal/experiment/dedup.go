// Dedup figure: what content-addressed chunking buys on a redundant
// multi-user workload. Three cells run the same shared-content workload
// (every cycle all sessions submit variants of one common file, sharing
// ~Redundancy of their bytes):
//
//   - baseline:  chunk transfers off — each variant rides the classic
//     delta/full path, and since successive commons are unrelated, deltas
//     degrade to near-full payloads. This is the whole-file cost.
//   - chunked:   chunk transfers — the first session to upload a common block's
//     chunks pays for them, every other session's manifest just references
//     them.
//   - pressure:  chunked, with the server cache capped below the working
//     set — evictions fire continuously, and re-fetches must come back as
//     missing chunks only (rehydrations), never whole files.
package experiment

import (
	"fmt"
	"io"
)

// DedupConfig parametrizes RunDedupFigure.
type DedupConfig struct {
	// Sessions is the number of concurrent users sharing content.
	Sessions int
	// Cycles is the number of shared-content rounds per session.
	Cycles int
	// FileSize is the common file's size in bytes.
	FileSize int
	// Redundancy is the fraction of each variant shared with the common
	// content (and hence with every other session's variant).
	Redundancy float64
	// PressureCapacity is the pressure cell's cache bound in bytes; 0
	// derives one from FileSize (about two files' worth — far below the
	// working set).
	PressureCapacity int64
	// Transport, Jobs, Seed as in ServerBenchConfig.
	Transport string
	Jobs      int
	Seed      int64
}

func (c DedupConfig) withDefaults() DedupConfig {
	if c.Sessions <= 0 {
		c.Sessions = 16
	}
	if c.Cycles <= 0 {
		c.Cycles = 4
	}
	if c.FileSize <= 0 {
		c.FileSize = 48 * 1024
	}
	// Input decks across users of one code are near-identical; each user's
	// private tweaks are a few percent. Note the wire cost of an edit is its
	// dirty chunks, not its bytes: a 2 KB private block dirties the chunks
	// overlapping it (~2x at the default 1 KB average), so the achievable
	// reduction is bounded well below 1/(1-redundancy).
	if c.Redundancy <= 0 {
		c.Redundancy = 0.97
	}
	if c.PressureCapacity <= 0 {
		c.PressureCapacity = int64(2 * c.FileSize)
	}
	if c.Transport == "" {
		c.Transport = "tcp"
	}
	if c.Seed == 0 {
		c.Seed = 1987
	}
	return c
}

func (c DedupConfig) bench() ServerBenchConfig {
	return ServerBenchConfig{
		Sessions:   c.Sessions,
		Cycles:     c.Cycles,
		FileSize:   c.FileSize,
		Transport:  c.Transport,
		Jobs:       c.Jobs,
		Seed:       c.Seed,
		Redundancy: c.Redundancy,
	}
}

// DedupFigure holds the three cells plus the headline reductions.
type DedupFigure struct {
	Baseline ServerBenchResult
	Chunked  ServerBenchResult
	Pressure ServerBenchResult
}

// WireReduction is the headline number: whole-file baseline wire bytes per
// chunked wire byte.
func (f *DedupFigure) WireReduction() float64 {
	if f.Chunked.BytesOnWire == 0 {
		return 0
	}
	return float64(f.Baseline.BytesOnWire) / float64(f.Chunked.BytesOnWire)
}

// CacheReduction compares the baseline's logical cache footprint (what a
// whole-file cache would hold) against the chunked run's unique bytes.
func (f *DedupFigure) CacheReduction() float64 {
	if f.Chunked.UniqueCacheBytes == 0 {
		return 0
	}
	return float64(f.Baseline.LogicalCacheBytes) / float64(f.Chunked.UniqueCacheBytes)
}

// RunDedupFigure runs the three cells. Labels mark the rows in
// BENCH_server.json: "dedup-baseline", "dedup-chunked", "dedup-pressure".
func RunDedupFigure(cfg DedupConfig) (*DedupFigure, error) {
	cfg = cfg.withDefaults()
	fig := &DedupFigure{}

	base := cfg.bench()
	res, err := RunServerBench(base)
	if err != nil {
		return nil, fmt.Errorf("dedup baseline: %w", err)
	}
	res.Label = "dedup-baseline"
	fig.Baseline = res

	chunked := cfg.bench()
	chunked.Chunked = true
	if res, err = RunServerBench(chunked); err != nil {
		return nil, fmt.Errorf("dedup chunked: %w", err)
	}
	res.Label = "dedup-chunked"
	fig.Chunked = res

	pressure := cfg.bench()
	pressure.Chunked = true
	pressure.CacheCapacity = cfg.PressureCapacity
	if res, err = RunServerBench(pressure); err != nil {
		return nil, fmt.Errorf("dedup pressure: %w", err)
	}
	res.Label = "dedup-pressure"
	fig.Pressure = res

	return fig, nil
}

// Render prints the figure as a table plus the headline reductions.
func (f *DedupFigure) Render(w io.Writer) {
	fmt.Fprintf(w, "Dedup: %d sessions x %d cycles, %s shared variants (redundancy %.2f)\n",
		f.Baseline.Sessions, f.Baseline.CyclesPerSess,
		sizeLabel(f.Baseline.FileSize), f.Baseline.Redundancy)
	fmt.Fprintf(w, "%-16s %14s %14s %14s %8s %12s %12s %8s\n",
		"cell", "wire bytes", "cache unique", "cache logical", "dedup", "evictions", "rehydrated", "fulls")
	for _, row := range []struct {
		name string
		r    ServerBenchResult
	}{
		{"baseline", f.Baseline},
		{"chunked", f.Chunked},
		{"pressure", f.Pressure},
	} {
		fmt.Fprintf(w, "%-16s %14d %14d %14d %7.1fx %12d %12d %8d\n",
			row.name, row.r.BytesOnWire, row.r.UniqueCacheBytes, row.r.LogicalCacheBytes,
			row.r.DedupRatio, row.r.CacheEvictions, row.r.Rehydrations, row.r.FullRetransmits)
	}
	fmt.Fprintf(w, "wire reduction vs whole-file baseline: %.1fx\n", f.WireReduction())
	fmt.Fprintf(w, "cache reduction (logical baseline vs unique chunked): %.1fx\n", f.CacheReduction())
}
