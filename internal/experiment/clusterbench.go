// Cluster scaling benchmark: the same edit–submit–fetch workload driven
// against shadow-cache clusters of 1, 2 and 4 instances, measured in
// *virtual* time. Each instance runs on its own simulated host, so job CPU
// charges land on per-instance clocks and the busiest instance's elapsed
// virtual time is the cell's makespan — the quantity consistent-hash
// placement is supposed to divide. Peer traffic accounting rides along; that
// no full file crosses a peer link is the server's dispatch gate, not a count.
package experiment

import (
	"fmt"
	"time"

	"shadowedit/internal/metrics"
	"shadowedit/internal/server"
)

// The figure's shape: cluster sizes 1, 2 and 4, 16 workstations, 10 measured
// cycles each on 8 KiB files.
var clusterInstances = []int{1, 2, 4}

const (
	clusterSessions = 16
	clusterCycles   = 10
	clusterFileSize = 8 * 1024
	// clusterJobCPU is the simulated compute each job charges its instance's
	// clock; it is what placement parallelizes, so it dominates the cell's
	// virtual makespan the way real batch work dominates a real machine.
	clusterJobCPU = 250 * time.Millisecond
	// clusterScripts is how many script files each session rotates through.
	// Jobs route to the script's ring owner, so with one script per session
	// the busiest instance is set by a 16-keys-into-4-bins draw — high
	// variance that would gate the scaling number on luck. Rotating scripts
	// spreads each session's jobs across instances round by round, so
	// per-instance load time-averages toward sessions/instances, which is
	// the quantity the figure is meant to measure.
	clusterScripts = 8
)

// ClusterFigure is the cluster scaling figure: one cell per cluster size.
type ClusterFigure struct {
	Cells []ServerBenchResult
}

// Scaling returns the last cell's throughput relative to the first
// (cycles/sec at N instances over cycles/sec at 1).
func (f ClusterFigure) Scaling() float64 {
	if len(f.Cells) < 2 || f.Cells[0].CyclesPerSec == 0 {
		return 0
	}
	return f.Cells[len(f.Cells)-1].CyclesPerSec / f.Cells[0].CyclesPerSec
}

// Render prints the figure as a table.
func (f ClusterFigure) Render(w interface{ Write([]byte) (int, error) }) {
	fmt.Fprintf(w, "Cluster scaling: %d sessions x %d cycles, %d-byte files\n",
		f.Cells[0].Sessions, f.Cells[0].CyclesPerSess, f.Cells[0].FileSize)
	fmt.Fprintf(w, "%-10s %12s %14s %14s %12s\n",
		"instances", "cycles/sec", "virtual-sec", "peer-forwards", "owner-miss")
	for _, c := range f.Cells {
		fmt.Fprintf(w, "%-10d %12.1f %14.2f %14d %12d\n",
			c.Instances, c.CyclesPerSec, c.VirtualElapsedSec, c.PeerForwards, c.OwnerMisses)
	}
	if s := f.Scaling(); s > 0 {
		fmt.Fprintf(w, "scaling: %.2fx cycles/sec at %d instances vs 1\n",
			s, f.Cells[len(f.Cells)-1].Instances)
	}
}

// RunClusterBench runs the cluster scaling figure.
func RunClusterBench(seed int64) (ClusterFigure, error) {
	var fig ClusterFigure
	for _, n := range clusterInstances {
		cell, err := runClusterCell(n, seed)
		if err != nil {
			return fig, fmt.Errorf("clusterbench: %d instances: %w", n, err)
		}
		fig.Cells = append(fig.Cells, cell)
	}
	return fig, nil
}

// runClusterCell measures one cluster size.
func runClusterCell(instances int, seed int64) (ServerBenchResult, error) {
	scfg := server.Defaults("super1")
	scfg.MaxConcurrentJobs = clusterSessions
	// The prime's first submissions ship every file in full and warm the
	// owners; the measured cycles are steady-state delta traffic plus job CPU.
	var starts []time.Duration
	f, _, err := drive(fleetSpec{
		transport:   "netsim",
		members:     instances,
		server:      scfg,
		sessions:    clusterSessions,
		seed:        seed,
		script:      fmt.Sprintf("sleep %s\n%s", clusterJobCPU, jobScript),
		scriptFiles: clusterScripts,
		content:     editing(clusterFileSize, editPercent),
	}, clusterCycles, func(f *fleet) {
		for _, name := range f.names {
			starts = append(starts, f.cluster.Network.Host(name).Now())
		}
	})
	if err != nil {
		return ServerBenchResult{}, err
	}
	defer f.close()

	// The cell's makespan is the busiest instance's virtual elapsed time:
	// that is the wall a real deployment would wait on.
	var makespan time.Duration
	var snap metrics.Snapshot
	for i, name := range f.names {
		makespan = max(makespan, f.cluster.Network.Host(name).Now()-starts[i])
		snap = metrics.Merge(snap, f.servers[i].Metrics())
	}
	if makespan <= 0 {
		return ServerBenchResult{}, fmt.Errorf("no virtual time elapsed")
	}
	total := clusterSessions * clusterCycles
	res := counterRow(snap)
	res.Label = fmt.Sprintf("cluster-%d", instances)
	res.Transport = "netsim"
	res.Sessions = clusterSessions
	res.CyclesPerSess = clusterCycles
	res.TotalCycles = total
	res.FileSize = clusterFileSize
	res.ElapsedSec = makespan.Seconds()
	res.CyclesPerSec = float64(total) / makespan.Seconds()
	res.Instances = instances
	res.VirtualElapsedSec = makespan.Seconds()
	return res, nil
}
