// Chaos harness: K concurrent sessions drive edit–submit–wait cycles over
// fault-injected links (frame drops, latency spikes, periodic flap windows)
// plus one forced mid-run disconnect per session, then verify that every job
// completed with byte-identical output to a fault-free reference execution.
// This is the acceptance gauntlet for the fault-tolerant session layer: drops
// reset connections, the client reconnects and resumes, idempotency tags keep
// re-submitted jobs single-run, and the server's held-output store preserves
// results across the gaps.
package experiment

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"shadowedit/internal/client"
	"shadowedit/internal/env"
	"shadowedit/internal/netsim"
	"shadowedit/internal/server"
)

// ChaosConfig parametrizes one chaos run.
type ChaosConfig struct {
	// Sessions is the number of concurrent client sessions.
	Sessions int
	// Cycles is the number of edit–submit–wait cycles per session.
	Cycles int
	// FileSize is the data file size in bytes.
	FileSize int
	// Seed makes both the workload and the fault pattern reproducible.
	Seed int64

	// DropRate is the per-frame loss probability on each session's link;
	// a lost frame resets the connection carrying it.
	DropRate float64
	// SpikeRate/SpikeExtra add latency spikes to a fraction of frames.
	SpikeRate  float64
	SpikeExtra time.Duration
	// FlapPeriod/FlapDown schedule periodic link outages in virtual time.
	FlapPeriod time.Duration
	FlapDown   time.Duration
	// Disconnects is the number of forced client-side disconnects per
	// session, spread evenly across the cycles.
	Disconnects int
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Sessions <= 0 {
		c.Sessions = 12
	}
	if c.Cycles <= 0 {
		c.Cycles = 200
	}
	if c.FileSize <= 0 {
		c.FileSize = 8 * 1024
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.DropRate < 0 {
		c.DropRate = 0
	}
	if c.Disconnects < 0 {
		c.Disconnects = 0
	}
	return c
}

// ChaosResult aggregates one chaos run.
type ChaosResult struct {
	Sessions    int
	Cycles      int
	Completed   int   // cycles that finished with verified output
	Mismatches  int   // cycles whose output differed from the reference
	Reconnects  int64 // session re-establishments across all clients
	Retries     int64 // request retries across all clients
	Fallbacks   int64 // delta deliveries degraded to full transfers
	Dropped     int64 // frames lost by injection, summed over links
	Spikes      int64 // frames delayed by injected latency spikes
	FlapRejects int64 // transmissions refused inside flap windows
	ElapsedSec  float64
}

// String renders the summary line the chaos figure prints.
func (r ChaosResult) String() string {
	return fmt.Sprintf(
		"chaos: %d sessions x %d cycles: %d/%d verified, %d mismatches; "+
			"%d reconnects, %d retries, %d full-transfer fallbacks; "+
			"faults: %d dropped, %d spiked, %d flap-rejected (%.1fs)",
		r.Sessions, r.Cycles, r.Completed, r.Sessions*r.Cycles, r.Mismatches,
		r.Reconnects, r.Retries, r.Fallbacks,
		r.Dropped, r.Spikes, r.FlapRejects, r.ElapsedSec)
}

// Failed reports whether the run missed its acceptance bar: every cycle must
// complete and verify byte-identical.
func (r ChaosResult) Failed() bool {
	return r.Completed != r.Sessions*r.Cycles || r.Mismatches > 0
}

// RunChaos executes the chaos gauntlet and verifies every job output against
// a local fault-free reference execution.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg = cfg.withDefaults()
	scfg := server.Defaults("chaos")
	scfg.MaxConcurrentJobs = cfg.Sessions
	f, err := deploy(fleetSpec{
		transport: "netsim",
		server:    scfg,
		sessions:  cfg.Sessions,
		seed:      cfg.Seed,
		script:    jobScript,
		content:   editing(cfg.FileSize, editPercent),
		// The fault-tolerant session layer: redial with backoff on the
		// workstation's virtual clock, so backoff outlasts flap windows.
		client: func(s *fleetSession, cc *client.Config) {
			cc.Dial = s.dial
			cc.Retry = client.RetryPolicy{
				MaxAttempts: 60,
				BaseDelay:   5 * time.Millisecond,
				MaxDelay:    250 * time.Millisecond,
				Seed:        cfg.Seed + int64(s.i) + 1,
			}
			cc.RPCTimeout = 30 * time.Second
			cc.Sleep = func(ctx context.Context, d time.Duration) error {
				s.ws.Host().Process(d)
				return ctx.Err()
			}
		},
		// A hang guard only; all simulated waiting runs on virtual time.
		timeout: 2 * time.Minute,
	})
	if err != nil {
		return ChaosResult{}, err
	}
	defer f.close()
	// Sessions connect over clean lines; the faults start with the cycles.
	// The first cycle then ships each file in full through them: there is no
	// prime.
	if err := f.connect(); err != nil {
		return ChaosResult{}, fmt.Errorf("chaos: %w", err)
	}
	links := make([]*netsim.Link, cfg.Sessions)
	for i, s := range f.sessions {
		links[i], _ = f.cluster.Network.LinkBetween(s.host, f.names[0])
		links[i].SetFaults(netsim.FaultSpec{
			Seed:       cfg.Seed + int64(s.i)*7919,
			DropRate:   cfg.DropRate,
			SpikeRate:  cfg.SpikeRate,
			SpikeExtra: cfg.SpikeExtra,
			FlapPeriod: cfg.FlapPeriod,
			FlapDown:   cfg.FlapDown,
		})
	}

	// Forced disconnects: Bounce() severs the live connection before evenly
	// spaced cycles; the supervisor must reconnect and resume.
	bounceBefore := make(map[int]bool, cfg.Disconnects)
	for k := 1; k <= cfg.Disconnects; k++ {
		bounceBefore[k*cfg.Cycles/(cfg.Disconnects+1)] = true
	}
	var completed, mismatched atomic.Int64
	run, err := f.run(cfg.Cycles, func(s *fleetSession, cyc int, rec env.JobRecord) error {
		if !f.verified(s, rec) {
			mismatched.Add(1)
		}
		completed.Add(1)
		if bounceBefore[cyc+1] {
			s.cl.Bounce()
		}
		return nil
	})
	if err != nil {
		return ChaosResult{}, fmt.Errorf("chaos: %w", err)
	}

	res := ChaosResult{
		Sessions:   cfg.Sessions,
		Cycles:     cfg.Cycles,
		Completed:  int(completed.Load()),
		Mismatches: int(mismatched.Load()),
		ElapsedSec: run.elapsed.Seconds(),
	}
	for i, s := range f.sessions {
		m := s.cl.Metrics()
		res.Reconnects += m.Reconnects
		res.Retries += m.Retries
		res.Fallbacks += m.FullFallbacks
		dropped, spikes, flaps := links[i].FaultStats()
		res.Dropped += dropped
		res.Spikes += spikes
		res.FlapRejects += flaps
	}
	return res, nil
}
