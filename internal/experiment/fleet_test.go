package experiment

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"shadowedit/internal/env"
	"shadowedit/internal/server"
)

// TestFleetEveryShape drives the one harness on every deployment it can
// build: each transport with one server, and netsim with a two-member
// cluster. Every job's output must equal a local execution of the same
// script on the same bytes, every fetch must end (settle), and closing the
// fleet must leave no goroutine behind.
func TestFleetEveryShape(t *testing.T) {
	const sessions, cycles = 2, 3
	for _, shape := range []struct {
		transport string
		members   int
		virtual   bool
	}{
		{transport: "tcp"},
		{transport: "pipe"},
		{transport: "netsim"},
		{transport: "netsim", virtual: true},
		{transport: "netsim", members: 2},
	} {
		t.Run(fmt.Sprintf("%s-%d-%v", shape.transport, shape.members, shape.virtual), func(t *testing.T) {
			before := runtime.NumGoroutine()
			scfg := server.Defaults("bench")
			scfg.MaxConcurrentJobs = sessions
			f, err := deploy(fleetSpec{
				transport:   shape.transport,
				members:     shape.members,
				virtual:     shape.virtual,
				server:      scfg,
				sessions:    sessions,
				seed:        11,
				script:      "wc data.dat\n" + jobScript,
				scriptFiles: 2,
				content:     editing(3*1024, editPercent),
			})
			if err != nil {
				t.Fatal(err)
			}
			closed := false
			defer func() {
				if !closed {
					f.close()
				}
			}()
			if err := f.connect(); err != nil {
				t.Fatal(err)
			}
			if err := f.prime(); err != nil {
				t.Fatal(err)
			}
			run, err := f.run(cycles, func(s *fleetSession, cyc int, rec env.JobRecord) error {
				if !f.verified(s, rec) {
					return fmt.Errorf("exit %d, stdout %q: not what the script prints locally", rec.ExitCode, rec.Stdout)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for k, lats := range run.latencies {
				if len(lats) != cycles {
					t.Fatalf("session %d ran %d cycles, want %d", k, len(lats), cycles)
				}
				for cyc, lat := range lats {
					if lat <= 0 {
						t.Fatalf("session %d cycle %d: latency %v", k, cyc, lat)
					}
				}
			}
			if err := f.settle(); err != nil {
				t.Fatal(err)
			}
			f.close()
			closed = true
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after close, %d before deploy", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// Bounds on settle's wait: a second of virtual time is hundreds of LAN round
// trips, and nothing that ends takes seconds of wall time on a netsim link.
const (
	settleVirtual = time.Second
	settleWall    = 5 * time.Second
)

// settle waits, before the fleet closes, for the fetches still in flight on
// every server to end. On a cluster one can lawfully outlive the last output:
// the file's owner pulls the version its client notified, while the executing
// member, declined by the owner that had not pulled it yet, fetched the same
// version from the client itself and ran the job first. The owner's answer
// lands a round trip later. A fetch still open after settleWall, or one that
// ends only after settleVirtual has passed on its server's simulated clock,
// is a fetch that never ends, and settle names it.
func (f *fleet) settle() error {
	deadline := time.Now().Add(settleWall)
	for i, srv := range f.servers {
		clock := func() time.Duration { return 0 } // a stream transport has no simulated clock
		if f.cluster != nil {
			clock = f.cluster.Network.Host(f.names[i]).Now
		}
		start := clock()
		for srv.InFlightFetches() > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("server %d: fetches still in flight after the run: %q", i, srv.DescribeFetches())
			}
			time.Sleep(time.Millisecond)
		}
		if d := clock() - start; d > settleVirtual {
			return fmt.Errorf("server %d: a fetch in flight after the run ended %v of virtual time later", i, d)
		}
	}
	return nil
}

// TestFleetRefusesWhatOnlyNetsimBuilds: a cluster or a virtual clock on a
// stream transport is a spec error, not a silently different figure.
func TestFleetRefusesWhatOnlyNetsimBuilds(t *testing.T) {
	for _, spec := range []fleetSpec{
		{transport: "tcp", members: 2},
		{transport: "pipe", virtual: true},
		{transport: "carrier-pigeon"},
	} {
		spec.server = server.Defaults("bench")
		if f, err := deploy(spec); err == nil {
			f.close()
			t.Fatalf("deploy(%+v) succeeded", spec)
		}
	}
}
