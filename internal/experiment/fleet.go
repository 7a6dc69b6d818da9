// The fleet: the one harness behind every multi-session figure. The paper's
// evaluation is a single procedure run at different sizes — edit a file,
// submit, wait for the output, time it (§8.1) — so the harness is a single
// deployment builder and a single per-session cycle loop; a figure is a
// fleetSpec plus a mapping from what the run measured to its result type.
package experiment

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"shadowedit/internal/client"
	"shadowedit/internal/env"
	"shadowedit/internal/jobs"
	"shadowedit/internal/naming"
	"shadowedit/internal/netsim"
	"shadowedit/internal/server"
	"shadowedit/internal/wire"
	"shadowedit/internal/workload"

	shadow "shadowedit"
)

// fleetSpec describes a deployment and the sessions that drive it.
type fleetSpec struct {
	// transport is "tcp" (loopback sockets), "pipe" (synchronous in-process
	// net.Pipe streams — no file descriptors, so session counts can pass
	// RLIMIT_NOFILE) or "netsim" (a shadow.Cluster on simulated links).
	transport string
	// link is the workstation link on netsim (zero: LAN).
	link netsim.Spec
	// members, when nonzero, makes the deployment a shadow-cache cluster of
	// that many servers (super1..superN, netsim only) that every session
	// reaches through a routed ClusterClient; zero is one plain server.
	members int
	// server is every server's configuration (a cluster member takes its
	// member name).
	server server.Config
	// sessions is the session count; first is the index of the first one.
	// Session i is user u<i> at workstation ws<i> with generator seed+i, so
	// a session replayed alone (first = i, sessions = 1) sends the frames it
	// sent in company.
	sessions, first int
	seed            int64
	// script is the job command file; scriptFiles (default 1) is how many
	// copies each session holds and rotates through — in a cluster a job
	// runs at its script's ring owner, so several paths spread one session's
	// jobs over the members.
	script      string
	scriptFiles int
	// content returns session s's data file for cycle cyc (-1 is the prime);
	// nil resubmits the file unchanged.
	content func(s *fleetSession, cyc int) []byte
	// client, if set, adjusts a session's client configuration.
	client func(s *fleetSession, cfg *client.Config)
	// virtual times cycles on the workstation's virtual clock and corks each
	// cycle's sends (see corkConn): single-server netsim only.
	virtual bool
	// workers bounds how many sessions connect or prime at once (default 1:
	// in session order).
	workers int
	// timeout, if set, is a wall-clock hang guard on each cycle.
	timeout time.Duration
}

// editing is the stationary workload: a size-byte file, percent of it
// replaced each cycle. EditReplace keeps the size fixed — EditMixed inserts
// more than it deletes, so a long run would measure growth, not throughput.
func editing(size int, percent float64) func(*fleetSession, int) []byte {
	return func(s *fleetSession, cyc int) []byte {
		if cyc < 0 {
			return s.gen.File(size)
		}
		return s.gen.Modify(s.content, percent, workload.EditReplace)
	}
}

// fleet is a running deployment with its sessions.
type fleet struct {
	spec     fleetSpec
	cluster  *shadow.Cluster // netsim only
	universe *naming.Universe
	servers  []*server.Server
	names    []string // netsim server host names, one per member
	dial     func() (wire.Conn, error)
	stop     func()
	sessions []*fleetSession
}

// fleetSession is one user at one workstation.
type fleetSession struct {
	i          int
	user, host string
	ws         *shadow.Workstation   // netsim only
	cl         *client.Client        // one server
	cc         *client.ClusterClient // a cluster
	cork       *corkConn             // virtual only
	dial       func() (wire.Conn, error)
	gen        *workload.Generator
	content    []byte
	data       []string // the data file's path, as Submit takes it
	scripts    []string
}

// deploy starts the spec's servers and stages every session's files; connect
// opens the sessions.
func deploy(spec fleetSpec) (*fleet, error) {
	if spec.scriptFiles <= 0 {
		spec.scriptFiles = 1
	}
	if spec.workers <= 0 {
		spec.workers = 1
	}
	f := &fleet{spec: spec}
	switch {
	case spec.transport == "netsim":
		if err := f.deployNetsim(); err != nil {
			return nil, err
		}
	case spec.members > 0 || spec.virtual:
		return nil, fmt.Errorf("fleet: clusters and virtual time need transport netsim, not %q", spec.transport)
	default:
		if err := f.deployStream(); err != nil {
			return nil, err
		}
	}
	f.sessions = make([]*fleetSession, spec.sessions)
	for k := range f.sessions {
		i := spec.first + k
		s := &fleetSession{
			i:    i,
			user: fmt.Sprintf("u%d", i),
			host: fmt.Sprintf("ws%d", i),
			dial: f.dial,
			gen:  workload.NewGenerator(spec.seed + int64(i)),
		}
		s.data = []string{fmt.Sprintf("/u/%s/data.dat", s.user)}
		if f.cluster != nil {
			s.ws = f.cluster.NewWorkstation(s.host)
			if spec.members == 0 {
				s.dial = func() (wire.Conn, error) { return s.ws.Host().Dial(f.names[0], shadow.ServerPort) }
			}
		} else {
			f.universe.AddHost(s.host)
		}
		for j := 0; j < spec.scriptFiles; j++ {
			p := fmt.Sprintf("/u/%s/run%d.job", s.user, j)
			if err := f.universe.WriteFile(s.host, p, []byte(spec.script)); err != nil {
				f.close()
				return nil, err
			}
			s.scripts = append(s.scripts, p)
		}
		f.sessions[k] = s
	}
	return f, nil
}

// deployNetsim builds the simulated deployment on the product's own API: a
// shadow.Cluster with one server, or with members joined by EnablePeering.
func (f *fleet) deployNetsim() error {
	spec := f.spec
	f.names = []string{"super"}
	scfg := spec.server
	if spec.members > 0 {
		f.names = f.names[:0]
		for i := 1; i <= spec.members; i++ {
			f.names = append(f.names, fmt.Sprintf("super%d", i))
		}
		scfg.Name = f.names[0]
	}
	link := spec.link
	if link.BitsPerSecond == 0 {
		link = netsim.LAN
	}
	c, err := shadow.NewCluster(shadow.ClusterConfig{Domain: "bench", ServerName: f.names[0], Link: link, Server: &scfg})
	if err != nil {
		return err
	}
	f.cluster, f.universe, f.stop = c, c.Universe, c.Close
	f.servers = []*server.Server{c.Server()}
	for _, name := range f.names[1:] {
		scfg.Name = name
		srv, err := c.AddServer(name, scfg)
		if err != nil {
			c.Close()
			return err
		}
		f.servers = append(f.servers, srv)
	}
	if spec.members > 0 {
		// Members share a machine room: the zero link is LAN.
		if err := c.EnablePeering(shadow.LinkSpec{}, f.names...); err != nil {
			c.Close()
			return err
		}
	}
	return nil
}

// deployStream serves one server over loopback TCP or in-process pipes.
func (f *fleet) deployStream() error {
	var accept func() (net.Conn, error)
	var dial func() (net.Conn, error)
	var closeTransport func()
	switch f.spec.transport {
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr := ln.Addr().String()
		accept = ln.Accept
		dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
		closeTransport = func() { _ = ln.Close() }
	case "pipe":
		// Rendezvous: every dial mints a net.Pipe and hands the server end
		// to the acceptor, so 10k sessions cost only goroutines and heap —
		// exactly what a capacity run wants to measure.
		ch := make(chan net.Conn)
		closed := make(chan struct{})
		var once sync.Once
		accept = func() (net.Conn, error) {
			select {
			case c := <-ch:
				return c, nil
			case <-closed:
				return nil, net.ErrClosed
			}
		}
		dial = func() (net.Conn, error) {
			c1, c2 := net.Pipe()
			select {
			case ch <- c2:
				return c1, nil
			case <-closed:
				return nil, net.ErrClosed
			}
		}
		closeTransport = func() { once.Do(func() { close(closed) }) }
	default:
		return fmt.Errorf("fleet: unknown transport %q", f.spec.transport)
	}
	// Both ends are plain wire.NewStreamConn — not shadow.ServeTCP's
	// write-buffered server side — which is what the committed -fig server
	// rows measured.
	stream := func(open func() (net.Conn, error)) func() (wire.Conn, error) {
		return func() (wire.Conn, error) {
			c, err := open()
			if err != nil {
				return nil, err
			}
			return wire.NewStreamConn(c), nil
		}
	}
	srv := server.New(f.spec.server)
	go func() { _ = srv.Serve(server.AcceptorFunc(stream(accept))) }()
	f.universe = naming.NewUniverse("bench")
	f.servers = []*server.Server{srv}
	f.dial = stream(dial)
	f.stop = func() {
		srv.Close()
		closeTransport()
	}
	return nil
}

// connect stages each session's first content and opens its session.
func (f *fleet) connect() error {
	return forEachCell(f.spec.workers, len(f.sessions), func(k int) error {
		s := f.sessions[k]
		if err := f.write(s, -1); err != nil {
			return err
		}
		cfg := client.Config{User: s.user, Universe: f.universe, Host: s.host, Env: env.Default(s.user)}
		if s.ws != nil {
			cfg.Clock = s.ws.Host()
		}
		if f.spec.client != nil {
			f.spec.client(s, &cfg)
		}
		var err error
		switch {
		case f.spec.members > 0:
			s.cc, err = s.ws.ConnectCluster(context.Background(), shadow.SessionConfig{Env: cfg.Env}, f.names...)
		case f.spec.virtual:
			s.cl, s.cork, err = connectCorked(f.cluster, s.ws, cfg)
		default:
			var conn wire.Conn
			if conn, err = s.dial(); err == nil {
				s.cl, err = client.Connect(context.Background(), conn, cfg)
			}
		}
		if err != nil {
			return fmt.Errorf("session %d connect: %w", s.i, err)
		}
		return nil
	})
}

// write stores session s's content for cycle cyc in its data file.
func (f *fleet) write(s *fleetSession, cyc int) error {
	if next := f.spec.content(s, cyc); next != nil {
		s.content = next
		return f.universe.WriteFile(s.host, s.data[0], next)
	}
	return nil
}

// prime submits every session's first job: it ships each file in full, so
// the cycles run afterwards are the steady-state traffic the paper measures.
func (f *fleet) prime() error {
	return forEachCell(f.spec.workers, len(f.sessions), func(k int) error {
		s := f.sessions[k]
		if _, _, err := f.cycle(s, -1); err != nil {
			return fmt.Errorf("session %d prime %w", s.i, err)
		}
		return nil
	})
}

// cycle submits session s's job for cycle cyc and waits for its output,
// returning the record and the cycle's latency: wall clock, or the
// workstation's virtual clock when the spec says so.
func (f *fleet) cycle(s *fleetSession, cyc int) (env.JobRecord, time.Duration, error) {
	ctx := context.Background()
	if f.spec.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.spec.timeout)
		defer cancel()
	}
	script := s.scripts[max(cyc, 0)%len(s.scripts)] // the prime runs the first
	wall := time.Now()
	var virt time.Duration
	if s.cork != nil {
		virt = s.cork.cork()
	}
	var rec env.JobRecord
	var err error
	if s.cc != nil {
		var job client.ClusterJob
		if job, err = s.cc.Submit(ctx, script, s.data, client.SubmitOptions{}); err != nil {
			return rec, 0, fmt.Errorf("submit: %w", err)
		}
		rec, err = s.cc.Wait(ctx, job)
	} else {
		var job uint64
		if job, err = s.cl.Submit(ctx, script, s.data, client.SubmitOptions{}); err != nil {
			return rec, 0, fmt.Errorf("submit: %w", err)
		}
		rec, err = s.cl.Wait(ctx, job)
	}
	if err != nil {
		return rec, 0, fmt.Errorf("wait: %w", err)
	}
	if s.cork != nil {
		return rec, s.ws.Host().Now() - virt, nil
	}
	return rec, time.Since(wall), nil
}

// fleetRun is what one run measured.
type fleetRun struct {
	// latencies holds every session's per-cycle latencies, in cycle order.
	latencies [][]time.Duration
	elapsed   time.Duration
	// mallocs is the heap allocation count across the run, fleet included.
	mallocs uint64
}

// run drives every session through cycles edit–submit–wait cycles, all
// sessions at once. step, if set, sees each finished cycle's record on the
// session's own goroutine; its error ends the run.
func (f *fleet) run(cycles int, step func(s *fleetSession, cyc int, rec env.JobRecord) error) (fleetRun, error) {
	res := fleetRun{latencies: make([][]time.Duration, len(f.sessions))}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := forEachCell(len(f.sessions), len(f.sessions), func(k int) error {
		s := f.sessions[k]
		lats := make([]time.Duration, 0, cycles)
		for cyc := 0; cyc < cycles; cyc++ {
			if err := f.write(s, cyc); err != nil {
				return err
			}
			rec, lat, err := f.cycle(s, cyc)
			if err != nil {
				return fmt.Errorf("session %d cycle %d %w", s.i, cyc, err)
			}
			lats = append(lats, lat)
			if step != nil {
				if err := step(s, cyc, rec); err != nil {
					return fmt.Errorf("session %d cycle %d: %w", s.i, cyc, err)
				}
			}
		}
		res.latencies[k] = lats
		return nil
	})
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	return res, err
}

// verified reports whether rec is what running script on s's current content
// locally, with no network and no cache in between, produces.
func (f *fleet) verified(s *fleetSession, rec env.JobRecord) bool {
	want := jobs.Execute(jobs.Request{
		Script: []byte(f.spec.script),
		Inputs: map[string][]byte{"data.dat": s.content},
	})
	return bytes.Equal(rec.Stdout, want.Stdout) && rec.ExitCode == want.ExitCode
}

// drive is the whole procedure: deploy spec, connect and prime its sessions,
// call primed (if set) and run cycles measured cycles. The caller closes the
// fleet it gets back.
func drive(spec fleetSpec, cycles int, primed func(*fleet)) (*fleet, fleetRun, error) {
	f, err := deploy(spec)
	if err != nil {
		return nil, fleetRun{}, err
	}
	if err = f.connect(); err == nil {
		err = f.prime()
	}
	var run fleetRun
	if err == nil {
		if primed != nil {
			primed(f)
		}
		run, err = f.run(cycles, nil)
	}
	if err != nil {
		f.close()
		return nil, fleetRun{}, err
	}
	return f, run, nil
}

// close ends every session, then the deployment.
func (f *fleet) close() {
	for _, s := range f.sessions {
		switch {
		case s == nil:
		case s.cc != nil:
			_ = s.cc.Close()
		case s.cl != nil:
			_ = s.cl.Close()
		}
	}
	f.stop()
}

// corkConn pins the one order a cycle's frames take on a simulated link.
//
// Submit sends a NOTIFY per changed input and then SUBMIT from the caller's
// goroutine, while the client's read loop answers the PULL the first NOTIFY
// provokes. Whether SUBMIT is stamped before or after that PULL's arrival
// moved the workstation's clock, and whether it queues ahead of the answer or
// behind it, is the Go scheduler's choice — and with it the cycle's virtual
// time (a round trip more when SUBMIT trails the FILE_ACK) and, under a
// bounded cache, which entries an arrival finds to evict. Between cork() and
// the SUBMIT that ends the caller's sends, frames are held; the SUBMIT
// releases them in order, all stamped with the virtual instant of cork(), and
// the read loop's sends queue behind them. That is the order every frame
// takes when the caller's goroutine is never descheduled, which is the run the
// committed figures record.
type corkConn struct {
	*netsim.Conn
	mu     sync.Mutex
	corked bool
	at     time.Duration
	held   [][]byte
}

// cork starts holding frames and returns the virtual instant they will carry.
func (c *corkConn) cork() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.corked = true
	c.at = c.Conn.Now()
	return c.at
}

func (c *corkConn) Send(payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.corked {
		return c.Conn.Send(payload)
	}
	c.held = append(c.held, payload)
	m, _, err := wire.UnmarshalTraced(payload)
	if err != nil {
		return err
	}
	if _, submit := m.(*wire.Submit); !submit {
		return nil
	}
	c.corked = false
	for _, frame := range c.held {
		if err := c.Conn.SendScheduled(frame, c.at); err != nil {
			return err
		}
	}
	c.held = c.held[:0]
	return nil
}

// connectCorked opens cfg.User's session from ws to the cluster's default
// server over a corkConn — Workstation.ConnectSession with the transport in
// the caller's hands.
func connectCorked(c *shadow.Cluster, ws *shadow.Workstation, cfg client.Config) (*client.Client, *corkConn, error) {
	raw, err := ws.Host().Dial(c.ServerHost().Name(), shadow.ServerPort)
	if err != nil {
		return nil, nil, err
	}
	cork := &corkConn{Conn: raw}
	cfg.Universe, cfg.Host, cfg.Clock = c.Universe, ws.Name(), ws.Host()
	cl, err := client.Connect(context.Background(), cork, cfg)
	if err != nil {
		_ = raw.Close()
		return nil, nil, err
	}
	return cl, cork, nil
}
