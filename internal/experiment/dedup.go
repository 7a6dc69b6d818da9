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

// The figure's shape: 16 users, 4 shared-content rounds each, on a 48 KiB
// common file.
const (
	dedupSessions = 16
	dedupCycles   = 4
	dedupFileSize = 48 * 1024
	// dedupRedundancy is the fraction of each variant shared with the common
	// content (and hence with every other session's variant). Input decks
	// across users of one code are near-identical; each user's private
	// tweaks are a few percent. Note the wire cost of an edit is its dirty
	// chunks, not its bytes: a 2 KB private block dirties the chunks
	// overlapping it (~2x at the default 1 KB average), so the achievable
	// reduction is bounded well below 1/(1-redundancy).
	dedupRedundancy = 0.97
	// dedupPressureCapacity is the pressure cell's cache bound: about two
	// files' worth — far below the working set.
	dedupPressureCapacity = 2 * dedupFileSize
)

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

// RunDedupFigure runs the three cells over loopback TCP. Labels mark the rows
// in BENCH_server.json: "dedup-baseline", "dedup-chunked", "dedup-pressure".
func RunDedupFigure(seed int64) (*DedupFigure, error) {
	cell := func(label string, chunked bool, capacity int64) (ServerBenchResult, error) {
		res, err := RunServerBench(ServerBenchConfig{
			Sessions:      dedupSessions,
			Cycles:        dedupCycles,
			FileSize:      dedupFileSize,
			Seed:          seed,
			Redundancy:    dedupRedundancy,
			Chunked:       chunked,
			CacheCapacity: capacity,
		})
		if err != nil {
			return res, fmt.Errorf("%s: %w", label, err)
		}
		res.Label = label
		return res, nil
	}
	fig := &DedupFigure{}
	var err error
	if fig.Baseline, err = cell("dedup-baseline", false, 0); err != nil {
		return nil, err
	}
	if fig.Chunked, err = cell("dedup-chunked", true, 0); err != nil {
		return nil, err
	}
	if fig.Pressure, err = cell("dedup-pressure", true, dedupPressureCapacity); err != nil {
		return nil, err
	}
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
