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
// script on the same bytes, no fetch may be left in flight, and closing the
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
			for i, srv := range f.servers {
				if n := srv.InFlightFetches(); n != 0 {
					t.Fatalf("server %d: %d fetches still in flight after the run", i, n)
				}
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
