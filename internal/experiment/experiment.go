// Package experiment regenerates the paper's evaluation: Figure 1 (Cypress
// transfer times), Figure 2 (ARPANET transfer times), Figure 3 (speedup
// factors), and the extension experiments for the future-work features
// (reverse shadow processing, delta algorithms, compression) plus ablations
// of the design choices (flow control, cache sizing).
//
// Methodology follows §8.1: "In each experiment, we submitted a job with a
// data file. After obtaining the results, we edited the data file and
// resubmitted the same job. We modified the data file by a different amount
// every time ... We measured the total amount of time spent in each case."
// The E-time (conventional batch) corresponds to a first submission, which
// transfers the entire file; the S-time is the shadow resubmission. Times
// are virtual seconds on the simulated link, which reproduce the
// serialization and round-trip delays that dominated the paper's
// measurements.
package experiment

import (
	"context"

	"fmt"
	"time"

	"shadowedit/internal/client"
	"shadowedit/internal/diff"
	"shadowedit/internal/netsim"
	"shadowedit/internal/workload"

	shadow "shadowedit"
)

// Config parametrizes one experiment run.
type Config struct {
	// Link is the simulated line (netsim.Cypress, netsim.ARPANET).
	Link netsim.Spec
	// Algorithm is the differencing algorithm (default Hunt–McIlroy).
	Algorithm diff.Algorithm
	// Compress turns on the compression layer.
	Compress bool
	// EditKind is the modification mix (default EditMixed).
	EditKind workload.EditKind
	// Seed makes runs reproducible.
	Seed int64
	// Workers bounds how many sweep cells run concurrently (0 means
	// GOMAXPROCS). Every cell builds its own rig and derives its own seed
	// from (Seed, size, percent), so results — and the rendered figures —
	// are byte-identical for any worker count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Link.BitsPerSecond == 0 {
		c.Link = netsim.ARPANET
	}
	if c.Algorithm == 0 {
		c.Algorithm = diff.HuntMcIlroy
	}
	if c.EditKind == 0 {
		c.EditKind = workload.EditMixed
	}
	if c.Seed == 0 {
		c.Seed = 1987
	}
	return c
}

// Cycle is one measured edit–submit–fetch data point.
type Cycle struct {
	// Size is the data file size in bytes.
	Size int
	// Percent is the fraction of the file modified before resubmission.
	Percent float64
	// STime is the shadow resubmission time (delta transfer).
	STime time.Duration
	// ETime is the conventional batch time (entire file transferred),
	// measured by resubmitting through the baseline RJE client.
	ETime time.Duration
	// ShadowBytes and BatchBytes are the file payload bytes each moved
	// during the measured resubmission.
	ShadowBytes int64
	BatchBytes  int64
}

// Speedup is the paper's metric: E-time / S-time.
func (c Cycle) Speedup() float64 {
	if c.STime <= 0 {
		return 0
	}
	return float64(c.ETime) / float64(c.STime)
}

// jobScript is the fixed job used by all timing cycles; its output is tiny
// so measured time is transfer time, as in the paper.
const jobScript = "checksum data.dat\n"

// RunCycle measures one (size, percent) cell: prime both systems with a
// first submission, edit percent% of the file, resubmit through each, and
// time the resubmissions on the virtual clock.
func RunCycle(cfg Config, size int, percent float64) (Cycle, error) {
	cfg = cfg.withDefaults()
	gen := workload.NewGenerator(cfg.Seed + int64(size) + int64(percent*1000))
	content := gen.File(size)
	edited := gen.Modify(content, percent, cfg.EditKind)

	sTime, sBytes, err := shadowCycle(cfg, content, edited)
	if err != nil {
		return Cycle{}, fmt.Errorf("experiment: shadow cycle: %w", err)
	}
	eTime, eBytes, err := batchCycle(cfg, content, edited)
	if err != nil {
		return Cycle{}, fmt.Errorf("experiment: batch cycle: %w", err)
	}
	return Cycle{
		Size:        size,
		Percent:     percent,
		STime:       sTime,
		ETime:       eTime,
		ShadowBytes: sBytes,
		BatchBytes:  eBytes,
	}, nil
}

// shadowCycle measures the resubmission under shadow editing.
func shadowCycle(cfg Config, content, edited []byte) (time.Duration, int64, error) {
	cluster, ws, err := newRig(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Close()

	environment := shadow.DefaultEnvironment("sci")
	environment.Algorithm = cfg.Algorithm
	environment.Compress = cfg.Compress
	c, cork, err := connectCorked(cluster, ws, client.Config{Env: environment})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()

	if err := prime(ws, c, content); err != nil {
		return 0, 0, err
	}
	before := c.Metrics()

	// The measured cycle: edit, resubmit, fetch.
	if err := ws.WriteFile("/u/sci/data.dat", edited); err != nil {
		return 0, 0, err
	}
	start := cork.cork()
	job, err := c.Submit(context.Background(), "/u/sci/run.job", []string{"/u/sci/data.dat"}, shadow.SubmitOptions{})
	if err != nil {
		return 0, 0, err
	}
	if _, err := c.Wait(context.Background(), job); err != nil {
		return 0, 0, err
	}
	elapsed := ws.Host().Now() - start
	after := c.Metrics()
	moved := (after.DeltaBytes + after.FullBytes) - (before.DeltaBytes + before.FullBytes)
	return elapsed, moved, nil
}

// batchCycle measures the resubmission under the conventional baseline.
func batchCycle(cfg Config, content, edited []byte) (time.Duration, int64, error) {
	cluster, ws, err := newRig(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Close()

	rc, err := ws.ConnectRJE("sci")
	if err != nil {
		return 0, 0, err
	}
	defer rc.Close()

	if err := ws.WriteFile("/u/sci/run.job", []byte(jobScript)); err != nil {
		return 0, 0, err
	}
	if err := ws.WriteFile("/u/sci/data.dat", content); err != nil {
		return 0, 0, err
	}
	job, err := rc.Submit("/u/sci/run.job", []string{"/u/sci/data.dat"})
	if err != nil {
		return 0, 0, err
	}
	if _, err := rc.Wait(job); err != nil {
		return 0, 0, err
	}
	before := rc.Metrics()

	if err := ws.WriteFile("/u/sci/data.dat", edited); err != nil {
		return 0, 0, err
	}
	start := ws.Host().Now()
	job2, err := rc.Submit("/u/sci/run.job", []string{"/u/sci/data.dat"})
	if err != nil {
		return 0, 0, err
	}
	if _, err := rc.Wait(job2); err != nil {
		return 0, 0, err
	}
	elapsed := ws.Host().Now() - start
	after := rc.Metrics()
	return elapsed, after.FullBytes - before.FullBytes, nil
}

func newRig(cfg Config) (*shadow.Cluster, *shadow.Workstation, error) {
	cluster, err := shadow.NewCluster(shadow.ClusterConfig{Link: cfg.Link})
	if err != nil {
		return nil, nil, err
	}
	return cluster, cluster.NewWorkstation("ws"), nil
}

// prime performs the first submission so the server cache holds the file.
func prime(ws *shadow.Workstation, c *shadow.Client, content []byte) error {
	if err := ws.WriteFile("/u/sci/run.job", []byte(jobScript)); err != nil {
		return err
	}
	if err := ws.WriteFile("/u/sci/data.dat", content); err != nil {
		return err
	}
	job, err := c.Submit(context.Background(), "/u/sci/run.job", []string{"/u/sci/data.dat"}, shadow.SubmitOptions{})
	if err != nil {
		return err
	}
	_, err = c.Wait(context.Background(), job)
	return err
}
