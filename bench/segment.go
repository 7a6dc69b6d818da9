package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"net"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	shadow "shadowedit"
	"shadowedit/internal/client"
	"shadowedit/internal/cluster"
	"shadowedit/internal/env"
	"shadowedit/internal/metrics"
	"shadowedit/internal/naming"
	"shadowedit/internal/obs"
	"shadowedit/internal/server"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// deployment is one fresh instance of the whole system: the daemon(s) behind
// real loopback listeners, served exactly as cmd/shadowd serves them, and one
// client per session dialed through a metering connection. A segment builds
// one, runs on it, and tears it down, so the server's job table (which never
// forgets a job) grows by the same amount in every segment.
type deployment struct {
	w        *workload
	servers  []*server.Server
	lns      []net.Listener
	served   sync.WaitGroup
	universe *naming.Universe
	meter    linkMeter
	tracer   *trace.Tracer
	sessions []*session
}

// session is one simulated user: a plan, the names of its files in the
// universe, and its client.
type session struct {
	idx     int
	host    string
	plan    *plan
	data    []string // universe path of each data file
	scripts []string // universe path of each job script
	submit  func(ctx context.Context, script, data string) (client.ClusterJob, error)
	wait    func(ctx context.Context, job client.ClusterJob) (env.JobRecord, error)
	close   func() error
	// ownerMisses reads the cluster client's failover counter (nil on a
	// standalone server).
	ownerMisses func() int64
	// crossOwner marks, per script and data file, whether placement puts
	// them on different members.
	crossOwner func(script, data int) bool

	recs  []cycleRec
	spans *spanLog // nil unless the segment is traced
}

// cycleRec is what the driver keeps of one cycle: how long it took and a
// checksum of what came back, for the oracle to judge after the clock has
// stopped.
type cycleRec struct {
	data, script int
	latency      time.Duration
	outSum       uint32
	failed       bool // the cycle errored or the job did not exit cleanly
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func memberName(i int) string { return fmt.Sprintf("m%d", i) }

// deploy starts the servers and connects every session. traced turns the
// product's tracer on, shared by the server and client observers, as
// `shadowd -trace all` does.
func deploy(ctx context.Context, w *workload, seed uint64, traced bool) (d *deployment, err error) {
	d = &deployment{w: w, universe: naming.NewUniverse("bench")}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if traced {
		d.tracer = trace.New(trace.Config{})
	}

	members := make(map[string]string, w.members)
	for i := 0; i < w.members; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return d, err
		}
		d.lns = append(d.lns, ln)
		members[memberName(i)] = ln.Addr().String()
	}
	for i, ln := range d.lns {
		cfg := server.Defaults(memberName(i))
		cfg.MaxConcurrentJobs = 2
		cfg.Pull = server.PullEager
		cfg.CacheCapacity = w.cacheCapacity
		cfg.Obs = obs.New(nil, nil)
		cfg.Obs.SetTracer(d.tracer)
		srv := shadow.NewServer(cfg)
		if w.members > 1 {
			shadow.JoinClusterTCP(srv, memberName(i), members)
		}
		d.servers = append(d.servers, srv)
		d.served.Add(1)
		go func() {
			defer d.served.Done()
			_ = shadow.ServeTCP(srv, ln) // ends when close shuts the server and listener
		}()
	}

	for i := 0; i < w.sessions; i++ {
		s, err := d.connect(ctx, i, newPlan(w, seed, i))
		if err != nil {
			return d, fmt.Errorf("session %d: %w", i, err)
		}
		d.sessions = append(d.sessions, s)
	}
	return d, nil
}

// dialer returns a Dial function for one server address whose connections
// are metered underneath the wire framing.
func (d *deployment) dialer(addr string) func() (wire.Conn, error) {
	return func() (wire.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 30*time.Second)
		if err != nil {
			return nil, err
		}
		return wire.NewStreamConn(&countConn{Conn: conn, meter: &d.meter}), nil
	}
}

// connect writes a session's files into the universe and opens its client.
func (d *deployment) connect(ctx context.Context, idx int, p *plan) (*session, error) {
	w := d.w
	user := fmt.Sprintf("u%d", idx)
	s := &session{idx: idx, host: fmt.Sprintf("ws%d", idx), plan: p}
	d.universe.AddHost(s.host)

	dataPath := func(n int) string { return fmt.Sprintf("/u/%s/f%03d/%s", user, n, dataName) }
	scriptPath := func(n int) string { return fmt.Sprintf("/u/%s/s%03d.job", user, n) }
	if w.members > 1 {
		// Name the files so that placement alternates between the members:
		// even-numbered files on one, odd on the other, for data and for
		// scripts. With scripts rotating against data files, every other
		// pass over the files pairs each script with data the other member
		// owns.
		ring := cluster.NewRing(cluster.DefaultVirtualNodes, d.memberNames()...)
		owner := func(path string) string {
			ref, err := d.universe.FileRef(s.host, path)
			if err != nil {
				return ""
			}
			return ring.Owner(ref.String())
		}
		s.data = placedNames(w.files, dataPath, owner)
		s.scripts = placedNames(w.scripts(), scriptPath, owner)
		s.crossOwner = func(script, data int) bool { return owner(s.scripts[script]) != owner(s.data[data]) }
	} else {
		for n := 0; n < w.files; n++ {
			s.data = append(s.data, dataPath(n))
		}
		s.scripts = []string{scriptPath(0)}
		s.crossOwner = func(int, int) bool { return false }
	}
	for n, f := range p.files {
		if err := d.universe.WriteFile(s.host, s.data[n], f.content); err != nil {
			return nil, err
		}
	}
	for _, path := range s.scripts {
		if err := d.universe.WriteFile(s.host, path, w.scriptText()); err != nil {
			return nil, err
		}
	}

	cfg := client.Config{
		User:     user,
		Universe: d.universe,
		Host:     s.host,
		Env:      env.Default(user),
		Chunked:  w.chunked,
	}
	if d.tracer != nil {
		cfg.Obs = obs.New(nil, nil)
		cfg.Obs.SetTracer(d.tracer)
	}
	opts := client.SubmitOptions{OutputDelta: &w.outputDelta}
	if w.members == 1 {
		cfg.Dial = d.dialer(d.lns[0].Addr().String())
		cl, err := shadow.DialTCP(ctx, "", cfg)
		if err != nil {
			return nil, err
		}
		s.close = cl.Close
		s.submit = func(ctx context.Context, script, data string) (client.ClusterJob, error) {
			job, err := cl.Submit(ctx, script, []string{data}, opts)
			return client.ClusterJob{Job: job}, err
		}
		s.wait = func(ctx context.Context, job client.ClusterJob) (env.JobRecord, error) {
			return cl.Wait(ctx, job.Job)
		}
		return s, nil
	}
	var cms []client.ClusterMember
	for i, ln := range d.lns {
		cms = append(cms, client.ClusterMember{Name: memberName(i), Dial: d.dialer(ln.Addr().String())})
	}
	cc, err := client.ConnectCluster(ctx, cms, cfg)
	if err != nil {
		return nil, err
	}
	s.close = cc.Close
	s.ownerMisses = cc.OwnerMisses
	s.submit = func(ctx context.Context, script, data string) (client.ClusterJob, error) {
		return cc.Submit(ctx, script, []string{data}, opts)
	}
	s.wait = cc.Wait
	return s, nil
}

func (d *deployment) memberNames() []string {
	names := make([]string, len(d.lns))
	for i := range names {
		names[i] = memberName(i)
	}
	return names
}

// placedNames returns count names, drawn in order from name(0), name(1), …,
// such that the i-th is owned by the (i mod 2)-th member in sorted order.
func placedNames(count int, name func(int) string, owner func(string) string) []string {
	out := make([]string, 0, count)
	for n := 0; len(out) < count; n++ {
		want := memberName(len(out) % 2)
		if candidate := name(n); owner(candidate) == want {
			out = append(out, candidate)
		}
	}
	return out
}

// close tears the deployment down in the order shadowd shuts down: clients
// say goodbye, the server drains, the listener closes.
func (d *deployment) close() {
	for _, s := range d.sessions {
		if s.close != nil {
			_ = s.close() // the session is being discarded; nothing to report
		}
	}
	for _, srv := range d.servers {
		srv.Close()
	}
	for _, ln := range d.lns {
		_ = ln.Close() // the server is closed, so the accept loop has nothing left to report
	}
	d.served.Wait()
}

// cycle runs one edit–submit–fetch cycle: the file is already edited in the
// plan; write it to the universe, submit, wait. Latency is timed from just
// before Submit to Wait returning.
func (d *deployment) cycle(ctx context.Context, s *session, data, script int) cycleRec {
	rec := cycleRec{data: data, script: script}
	var tWrite time.Time
	if s.spans != nil {
		tWrite = time.Now()
	}
	if err := d.universe.WriteFile(s.host, s.data[data], s.plan.files[data].content); err != nil {
		rec.failed = true
		return rec
	}
	t0 := time.Now()
	id, err := s.submit(ctx, s.scripts[script], s.data[data])
	var t1 time.Time
	if s.spans != nil {
		t1 = time.Now()
	}
	var job env.JobRecord
	if err == nil {
		job, err = s.wait(ctx, id)
	}
	t2 := time.Now()
	rec.latency = t2.Sub(t0)
	if s.spans != nil {
		s.spans.cycle(s.idx, tWrite, t0, t1, t2)
	}
	if err != nil || job.State != wire.JobDone || job.ExitCode != 0 || len(job.Stderr) != 0 {
		rec.failed = true
		return rec
	}
	rec.outSum = crc32.Checksum(job.Stdout, castagnoli)
	return rec
}

// phase runs body once per session, concurrently, and waits for all.
func (d *deployment) phase(body func(s *session)) {
	var wg sync.WaitGroup
	for _, s := range d.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(s)
		}()
	}
	wg.Wait()
}

// segmentResult holds everything measured on one segment. Every field is
// computed from this segment alone.
type segmentResult struct {
	cycles int // measured cycles, all sessions

	setupS        float64
	wallS         float64
	cpuS          float64
	latenciesMs   []float64 // sorted
	retainedBytes int64
	wire          linkTotals // measured phase
	primeWire     linkTotals // priming phase
	primedFiles   int

	attempted, failed int // every cycle run, priming and warm-up included

	// Read from outside at the end of the measured phase; the counters are
	// deltas over the measured phase.
	srv         metrics.Snapshot // cache hits, misses and evictions included
	chunkPuts   int64
	chunkDups   int64
	dedupRatio  float64
	submitAck   time.Duration
	pullArrival time.Duration
	jobLifetime time.Duration
	ownerMisses int64
	crossOwner  int
	mallocs     uint64
	allocBytes  uint64
	gcCPUShare  float64
	goroutines  int
	traceSpans  int64
	spans       []*spanLog
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveCounters sums the public counters of every server of the deployment.
type liveCounters struct {
	srv                         metrics.Snapshot
	chunkPuts, chunkDups        int64
	logicalBytes, residentBytes int64
}

func (d *deployment) counters() liveCounters {
	var c liveCounters
	for _, srv := range d.servers {
		c.srv = metrics.Merge(c.srv, srv.Metrics())
		cs := srv.Cache().Stats()
		c.chunkPuts += cs.ChunkPuts
		c.chunkDups += cs.ChunkDups
		c.logicalBytes += cs.LogicalBytes
		c.residentBytes += cs.Bytes
	}
	return c
}

// runSegment builds a deployment for one segment seed, primes every file,
// warms up, runs the fixed count of measured cycles, tears down, and then
// lets the oracle judge every output.
func runSegment(ctx context.Context, w *workload, seed uint64, cycles int, traced bool) (*segmentResult, error) {
	res := &segmentResult{}
	warmup := warmupCycles(cycles)

	deployStart := time.Now()
	d, err := deploy(ctx, w, seed, traced)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	defer d.close()
	for _, s := range d.sessions {
		s.recs = make([]cycleRec, 0, w.files+warmup+cycles)
		if traced {
			s.spans = newSpanLog(cycles)
		}
	}

	// Prime: the first submission of each file ships it whole; the measured
	// cycles are the steady state.
	d.phase(func(s *session) {
		for f := 0; f < w.files; f++ {
			s.recs = append(s.recs, d.cycle(ctx, s, f, f%w.scripts()))
		}
	})
	res.primeWire = d.meter.totals()
	res.primedFiles = w.files * w.sessions

	run := func(n int) {
		d.phase(func(s *session) {
			for i := 0; i < n; i++ {
				data, script := s.plan.step()
				s.recs = append(s.recs, d.cycle(ctx, s, data, script))
			}
		})
	}
	run(warmup)
	res.setupS = time.Since(deployStart).Seconds()

	// Everything between here and the start of the clock is the benchmark's
	// own bookkeeping.
	for _, s := range d.sessions {
		if s.spans != nil {
			s.spans.recording = true
			s.spans.epoch = time.Now()
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	wire0 := d.meter.totals()
	live0 := d.counters()
	gc0 := gcCPUSeconds()
	cpu0 := cpuSeconds()
	start := time.Now()

	run(cycles)

	res.wallS = time.Since(start).Seconds()
	res.cpuS = cpuSeconds() - cpu0
	res.wire = d.meter.totals().sub(wire0)
	res.goroutines = runtime.NumGoroutine()
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if res.cpuS > 0 {
		res.gcCPUShare = (gcCPUSeconds() - gc0) / res.cpuS
	}
	live1 := d.counters()
	res.srv = subSnapshot(live1.srv, live0.srv)
	res.chunkPuts = live1.chunkPuts - live0.chunkPuts
	res.chunkDups = live1.chunkDups - live0.chunkDups
	if live1.residentBytes > 0 {
		res.dedupRatio = float64(live1.logicalBytes) / float64(live1.residentBytes)
	}
	// The histograms cover the deployment's whole life; priming and warm-up
	// are a twentieth of their samples, which a median ignores.
	var ack, pull, job obs.HistogramSnapshot
	for _, srv := range d.servers {
		o := srv.Observer()
		a, p, j := o.SubmitAck.Snapshot(), o.PullArrival.Snapshot(), o.JobLifetime.Snapshot()
		ack.Merge(&a)
		pull.Merge(&p)
		job.Merge(&j)
	}
	res.submitAck, res.pullArrival, res.jobLifetime = ack.Quantile(0.5), pull.Quantile(0.5), job.Quantile(0.5)
	if d.tracer != nil {
		res.traceSpans = d.tracer.Stats().Spans
	}
	// Retention is what survives a collection while the deployment is still
	// referenced: the job tables, the version stores, the cached outputs.
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	res.retainedBytes = int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc)

	if n := d.meter.desynced.Load(); n > 0 {
		return nil, fmt.Errorf("frame follower lost the frame boundaries on %d link directions", n)
	}
	for _, s := range d.sessions {
		measured := s.recs[len(s.recs)-cycles:]
		for _, r := range measured {
			res.latenciesMs = append(res.latenciesMs, float64(r.latency)/float64(time.Millisecond))
			if s.crossOwner(r.script, r.data) {
				res.crossOwner++
			}
		}
		if s.ownerMisses != nil {
			res.ownerMisses += s.ownerMisses()
		}
		if s.spans != nil {
			res.spans = append(res.spans, s.spans)
		}
	}
	sort.Float64s(res.latenciesMs)
	res.cycles = len(res.latenciesMs)

	for _, s := range d.sessions {
		res.attempted += len(s.recs)
		res.failed += verify(newPlan(w, seed, s.idx), s.recs)
	}
	return res, nil
}

// gcCPUSeconds reads the runtime's cumulative estimate of the CPU time the
// collector has used.
func gcCPUSeconds() float64 {
	sample := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

// subSnapshot returns a - b field by field. Like metrics.Merge it walks the
// struct, so a counter added to the product later is never silently dropped.
func subSnapshot(a, b metrics.Snapshot) metrics.Snapshot {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(va.Field(i).Int() - vb.Field(i).Int())
	}
	return a
}
