// Capacity benchmark: how many concurrent shadow sessions one server
// process sustains, and what each costs. Where the server benchmark
// (serverbench.go) measures cycle throughput at modest session counts, this
// sweep connects fleets of 100–10,000 sessions over fd-free in-process
// pipes, measures the per-session goroutine and resident-heap footprint
// after priming, then drives a short churn phase for throughput under full
// fan-out. A second curve holds the fleet size fixed and sweeps GOMAXPROCS
// to expose scheduling behaviour.
package experiment

import (
	"fmt"
	"runtime"
	"time"

	"shadowedit/internal/obs"
	"shadowedit/internal/server"
)

const (
	// capacityProcsSessions is the fleet size the GOMAXPROCS curve runs at.
	capacityProcsSessions = 1000
	// capacityCycles is the measured churn per session (the prime is
	// separate).
	capacityCycles = 2
	// capacityFileSize is small on purpose: the footprint of interest is the
	// fixed per-session cost, not the file content.
	capacityFileSize = 2 * 1024
)

// RunCapacitySweep runs the two capacity curves and returns one result per
// cell: first the session sweep over sessions at the process's current
// GOMAXPROCS (label "capacity"), then the GOMAXPROCS sweep over procs (label
// "capacity-procs"). When report is non-nil it is called with each cell as
// it completes, so long sweeps show progress.
func RunCapacitySweep(sessions, procs []int, seed int64, report func(ServerBenchResult)) ([]ServerBenchResult, error) {
	var out []ServerBenchResult
	cell := func(label string, n, p int) error {
		res, err := runCapacityCell(n, p, seed)
		if err != nil {
			return err
		}
		res.Label = label
		out = append(out, res)
		if report != nil {
			report(res)
		}
		return nil
	}
	for _, n := range sessions {
		if err := cell("capacity", n, runtime.GOMAXPROCS(0)); err != nil {
			return out, fmt.Errorf("capacity %d sessions: %w", n, err)
		}
	}
	for _, p := range procs {
		if err := cell("capacity-procs", capacityProcsSessions, p); err != nil {
			return out, fmt.Errorf("capacity GOMAXPROCS=%d: %w", p, err)
		}
	}
	return out, nil
}

// runCapacityCell connects a fleet of sessions over pipes, measures its
// footprint, then churns every session concurrently — full fan-out, the load
// shape the capacity claim is about.
func runCapacityCell(sessions, procs int, seed int64) (ServerBenchResult, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	// Footprint baseline before any benchmark state exists.
	runtime.GC()
	var ms0, msConn runtime.MemStats
	runtime.ReadMemStats(&ms0)
	g0 := runtime.NumGoroutine()

	scfg := server.Defaults("bench")
	scfg.MaxConcurrentJobs = sessions
	scfg.Obs = obs.New(nil, nil)
	connectStart := time.Now()
	var connectSec, goroutinesPer float64
	res, err := runBench(fleetSpec{
		transport: "pipe",
		server:    scfg,
		sessions:  sessions,
		seed:      seed,
		script:    jobScript,
		content:   editing(capacityFileSize, editPercent),
		// Sequential setup of 10k sessions would dominate the run, and
		// unbounded fan-out would measure the scheduler's thundering herd
		// rather than the server.
		workers: min(8*procs, sessions),
	}, capacityCycles, func() {
		// What the connected, primed fleet holds resident (runBench has
		// just collected garbage).
		connectSec = time.Since(connectStart).Seconds()
		runtime.ReadMemStats(&msConn)
		goroutinesPer = float64(runtime.NumGoroutine()-g0) / float64(sessions)
	})
	if err != nil {
		return ServerBenchResult{}, err
	}
	res.FileSize = capacityFileSize
	res.GoroutinesPerSession = goroutinesPer
	// Signed and clamped: a GC between cells can leave the baseline heap
	// above the post-connect figure, and the unsigned difference would
	// wrap to garbage.
	heapDelta := max(int64(msConn.HeapInuse)-int64(ms0.HeapInuse), 0)
	res.ResidentKBPerSession = float64(heapDelta) / float64(sessions) / 1024
	res.ConnectSec = connectSec
	return res, nil
}
