package experiment

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"shadowedit/internal/env"
	"shadowedit/internal/server"
	"shadowedit/internal/workload"
)

// LoadCell is one point of the multi-client throughput sweep.
type LoadCell struct {
	Workers    int
	Clients    int
	Jobs       int
	Makespan   time.Duration // wall clock, all jobs submitted to delivered
	JobsPerSec float64
	Failures   int
}

// RunLoadSweep measures server throughput as MaxConcurrentJobs grows: the
// paper motivates shadow editing partly by the supercomputer being "swamped
// with several such remote login and file transfer sessions"; here N
// clients each submit a stream of compute-occupying jobs and we measure how
// admission-controlled execution scales. Wall-clock, not virtual: job
// stalls occupy real worker time, which is what the pool bounds.
func RunLoadSweep(cfg Config, clients, jobsPerClient int, workerCounts []int) ([]LoadCell, error) {
	cfg = cfg.withDefaults()
	var out []LoadCell
	for _, workers := range workerCounts {
		cell, err := loadOne(cfg, clients, jobsPerClient, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, cell)
	}
	return out, nil
}

// loadJobStall is each job's worker occupancy.
const loadJobStall = 40 * time.Millisecond

func loadOne(cfg Config, clients, jobsPerClient, workers int) (LoadCell, error) {
	scfg := server.Defaults("super")
	scfg.MaxConcurrentJobs = workers
	gen := workload.NewGenerator(cfg.Seed)
	f, err := deploy(fleetSpec{
		transport: "netsim",
		link:      cfg.Link,
		server:    scfg,
		sessions:  clients,
		script:    fmt.Sprintf("stall %s\n%s", loadJobStall, jobScript),
		// One file per client, never edited: every job is a resubmission
		// that moves no file bytes, so the pool is all that is measured.
		content: func(_ *fleetSession, cyc int) []byte {
			if cyc < 0 {
				return gen.File(4 * 1024)
			}
			return nil
		},
	})
	if err != nil {
		return LoadCell{}, err
	}
	defer f.close()
	if err := f.connect(); err != nil {
		return LoadCell{}, err
	}
	var failures atomic.Int64
	run, err := f.run(jobsPerClient, func(_ *fleetSession, _ int, rec env.JobRecord) error {
		if rec.ExitCode != 0 {
			failures.Add(1)
		}
		return nil
	})
	if err != nil {
		return LoadCell{}, err
	}
	cell := LoadCell{
		Workers:  workers,
		Clients:  clients,
		Jobs:     clients * jobsPerClient,
		Makespan: run.elapsed,
		Failures: int(failures.Load()),
	}
	if run.elapsed > 0 {
		cell.JobsPerSec = float64(cell.Jobs) / run.elapsed.Seconds()
	}
	return cell, nil
}

// RenderLoadSweep prints the throughput sweep.
func RenderLoadSweep(w io.Writer, cells []LoadCell) {
	fmt.Fprintln(w, "Multi-client load sweep: wall-clock throughput vs concurrent job slots")
	fmt.Fprintf(w, "%-10s %10s %10s %14s %12s %10s\n",
		"workers", "clients", "jobs", "makespan", "jobs/sec", "failures")
	for _, c := range cells {
		fmt.Fprintf(w, "%-10d %10d %10d %14v %12.1f %10d\n",
			c.Workers, c.Clients, c.Jobs, c.Makespan.Round(time.Millisecond), c.JobsPerSec, c.Failures)
	}
}
