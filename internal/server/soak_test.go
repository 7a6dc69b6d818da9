package server

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"

	"shadowedit/internal/client"
	"shadowedit/internal/env"
	"shadowedit/internal/jobs"
	"shadowedit/internal/naming"
	"shadowedit/internal/obs"
	"shadowedit/internal/wire"
)

// soakScale multiplies the soak test's cycle counts. The default is a few
// seconds' worth; CI runs -soak 50: fifty benchmark segments' worth of
// edit-small-shaped cycles and five of edit-large-shaped ones, in one
// deployment.
var soakScale = flag.Int("soak", 1, "multiply the soak test's cycle counts")

// soakDeployment is one server and its clients joined by in-process pipes,
// served as ServeConn serves any connection. Clients redial through dial, so
// submissions carry idempotency tags as a daemon's clients' do.
type soakDeployment struct {
	srv      *Server
	universe *naming.Universe
	clients  []*client.Client
}

func deploySoak(t testing.TB, sessions int) *soakDeployment {
	t.Helper()
	cfg := Defaults("super")
	cfg.Obs = obs.New(nil, nil)
	d := &soakDeployment{srv: New(cfg), universe: naming.NewUniverse("soak")}
	dial := func() (wire.Conn, error) {
		c1, c2 := net.Pipe()
		d.srv.ServeConn(wire.NewStreamConn(c2))
		return wire.NewStreamConn(c1), nil
	}
	for i := 0; i < sessions; i++ {
		host := fmt.Sprintf("ws%d", i)
		d.universe.AddHost(host)
		cl, err := client.Connect(context.Background(), nil, client.Config{
			User: fmt.Sprintf("u%d", i), Universe: d.universe, Host: host, Dial: dial, Obs: obs.New(nil, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		d.clients = append(d.clients, cl)
	}
	return d
}

func (d *soakDeployment) close() {
	for _, cl := range d.clients {
		_ = cl.Close()
	}
	d.srv.Close()
}

// soakFile is a text file of 64-byte lines that edit rewrites in place, a
// run of consecutive lines per cycle at a place that moves through the file,
// as an editor saving a lightly edited file would.
type soakFile struct {
	host, path string
	content    []byte
	perCycle   int // lines rewritten per cycle
	cursor     int
}

func newSoakFile(host, path string, size, perCycle int) *soakFile {
	f := &soakFile{host: host, path: path, perCycle: perCycle}
	for i := 0; len(f.content) < size; i++ {
		f.content = fmt.Appendf(f.content, "%08d the quick brown fox jumps over the lazy dog %012d\n", i, 0)
	}
	return f
}

func (f *soakFile) edit(cycle int) {
	lines := len(f.content) / 64
	f.cursor = (f.cursor + 37) % (lines - f.perCycle)
	for k := 0; k < f.perCycle; k++ {
		copy(f.content[(f.cursor+k)*64+51:], fmt.Sprintf("%012d", cycle))
	}
}

// cycle is one edit–submit–fetch cycle, checked against the job run locally
// on the same bytes. The output goes to one fixed result file per session: a
// file per job on the user's disk is the user's to clean up, and is not what
// this test watches.
func (d *soakDeployment) cycle(s int, f *soakFile, script string, n int) error {
	f.edit(n)
	if err := d.universe.WriteFile(f.host, f.path, f.content); err != nil {
		return err
	}
	ctx := context.Background()
	job, err := d.clients[s].Submit(ctx, script, []string{f.path}, client.SubmitOptions{OutputFile: "soak.out"})
	if err != nil {
		return err
	}
	rec, err := d.clients[s].Wait(ctx, job)
	if err != nil {
		return err
	}
	want := jobs.Execute(jobs.Request{Script: []byte("checksum data.dat\n"), Inputs: map[string][]byte{"data.dat": f.content}})
	if rec.ExitCode != 0 || !bytes.Equal(rec.Stdout, want.Stdout) {
		return fmt.Errorf("session %d cycle %d: output %q (exit %d), want %q", s, n, rec.Stdout, rec.ExitCode, want.Stdout)
	}
	return nil
}

// run drives cycles [from, to) on every session at once.
func (d *soakDeployment) run(t testing.TB, files []*soakFile, scripts []string, from, to int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(files))
	for s := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := from; n < to && errs[s] == nil; n++ {
				errs[s] = d.cycle(s, files[s], scripts[s], n)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// liveHeap is HeapAlloc with everything collectable collected: three
// collections, because a sync.Pool lets go of its buffers over two.
func liveHeap() int64 {
	var m runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestSoakOneDeploymentStaysFlat is the checker for "the server forgets": a
// long-lived deployment's heap does not grow with the jobs it has run, every
// per-job table on both ends is back at its idle size when the work stops,
// and the goroutines are gone after Close.
func TestSoakOneDeploymentStaysFlat(t *testing.T) {
	small, large := 15000**soakScale, 1500*max(1, *soakScale/10)
	if raceEnabled || testing.Short() {
		small, large = small/10, large/5
	}
	baseline := runtime.NumGoroutine()
	d := deploySoak(t, 2)
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()

	ran := 0 // cycles per session so far
	phase := func(name string, size, perCycle, cycles int) {
		var files []*soakFile
		var scripts []string
		for s := range d.clients {
			host := fmt.Sprintf("ws%d", s)
			dir := fmt.Sprintf("/u/%s", name)
			f := newSoakFile(host, dir+"/data.dat", size, perCycle)
			if err := d.universe.WriteFile(host, dir+"/run.job", []byte("checksum data.dat\n")); err != nil {
				t.Fatal(err)
			}
			files, scripts = append(files, f), append(scripts, dir+"/run.job")
		}
		mark := cycles / 5
		d.run(t, files, scripts, 0, mark)
		at20 := liveHeap()
		d.run(t, files, scripts, mark, cycles)
		at100 := liveHeap()
		perCycleGrowth := float64(at100-at20) / float64((cycles-mark)*len(files))
		t.Logf("%s: %d cycles x %d sessions, live heap %d KiB at 20%%, %d KiB at 100%%: %+.1f B/cycle",
			name, cycles, len(files), at20>>10, at100>>10, perCycleGrowth)
		// Until each end's ring of remembered jobs has filled (the server's
		// summaries, the client's job history: 1024 entries either), growth is
		// those rings filling; and the race detector's own bookkeeping is
		// heap too. Runs that cannot tell check only the idle sizes below.
		steady := !raceEnabled && ran+mark > summaryRingSize
		ran += cycles
		if steady && perCycleGrowth >= 64 {
			t.Errorf("%s: live heap grew %.1f B/cycle between the 20%% and 100%% marks, want < 64", name, perCycleGrowth)
		}
	}
	phase("small", 8<<10, 6, small)    // edit-small: 8 KiB, 5 % of lines
	phase("large", 256<<10, 41, large) // edit-large: 256 KiB, 1 % of lines

	// Idle: every per-job structure is back where it started. (The last
	// acknowledgements are handled after Wait returned.)
	eventually(t, "job table drained", func() bool { return d.srv.jobs.len() == 0 })
	s := d.srv
	if st := s.JobStats(); st.Live != 0 || st.Unacked != 0 || st.UnackedBytes != 0 || st.Retired != int64(2*(small+large)) {
		t.Errorf("JobStats at idle = %+v, want nothing live and %d retired", st, 2*(small+large))
	}
	s.tagMu.Lock()
	tags, tagged := 0, 0
	for _, m := range s.submitTags {
		tags += len(m)
	}
	for _, m := range s.retired.ring {
		if m.tag != 0 {
			tagged++
		}
	}
	ring := len(s.retired.ring)
	s.tagMu.Unlock()
	if ring > summaryRingSize || tags != tagged || tags == 0 {
		t.Errorf("%d idempotency tags for %d tagged summaries (ring of %d): a tag lives exactly as long as its summary", tags, tagged, ring)
	}
	s.waitMu.Lock()
	for id, list := range s.waiters {
		for _, j := range list[:cap(list)] {
			if j != nil {
				t.Errorf("waiters[%d] still pins job %d", id, j.id)
			}
		}
	}
	s.waitMu.Unlock()
	s.deliverMu.Lock()
	if n := len(s.undelivered) + len(s.routed); n != 0 {
		t.Errorf("%d hold queues at idle", n)
	}
	s.deliverMu.Unlock()
	if m := s.Metrics(); m.FullFallbacks != 0 {
		t.Errorf("%d full fallbacks: a recycled buffer was read after its release", m.FullFallbacks)
	}
	for i, cl := range d.clients {
		if awaiting, untaken := cl.Backlog(); awaiting != 0 || untaken != 0 {
			t.Errorf("client %d at idle: %d jobs awaited, %d deliveries untaken", i, awaiting, untaken)
		}
		if n := len(cl.Jobs().List()); n > 1024 {
			t.Errorf("client %d remembers %d jobs", i, n)
		}
	}

	d.close()
	closed = true
	eventually(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestWarmCycleAllocationBudget keeps the allocation diet from regressing
// silently: a warm edit–submit–fetch cycle on an 8 KiB file, both ends in
// this process, allocates at most 2.5 times the file (it was about 5 times
// when the file was allocated four times a cycle; the client's read of the
// file into the version store is the one file-sized allocation left).
func TestWarmCycleAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const size, warm, measured = 8 << 10, 500, 4000
	d := deploySoak(t, 1)
	defer d.close()
	f := newSoakFile("ws0", "/u/data.dat", size, 6)
	if err := d.universe.WriteFile("ws0", "/u/run.job", []byte("checksum data.dat\n")); err != nil {
		t.Fatal(err)
	}
	d.run(t, []*soakFile{f}, []string{"/u/run.job"}, 0, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.run(t, []*soakFile{f}, []string{"/u/run.job"}, warm, warm+measured)
	runtime.ReadMemStats(&after)
	perCycle := float64(after.TotalAlloc-before.TotalAlloc) / measured
	allocs := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.0f B and %.1f allocations per warm cycle (file: %d B; the test's own oracle and edit included)", perCycle, allocs, len(f.content))
	if limit := 2.5 * float64(len(f.content)); perCycle > limit {
		t.Errorf("a warm cycle allocates %.0f B, over the budget of %.0f (2.5 x the %d B file)", perCycle, limit, len(f.content))
	}
}

var _ = env.Default // the soak clients run on the default environment
