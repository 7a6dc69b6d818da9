package shadow

// End-to-end tests for the sharded shadow-cache cluster: consistent-hash
// routing, owner-to-owner delta forwarding, failover past a dead member,
// and byte-identical output under seeded link chaos.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shadowedit/internal/admin"
	"shadowedit/internal/jobs"
	"shadowedit/internal/netsim"
	"shadowedit/internal/obs"
	"shadowedit/internal/trace"
	"shadowedit/internal/workload"
)

// newPeeredCluster builds an n-instance shadow-cache cluster on LAN links
// with one workstation holding a routed session to every member.
func newPeeredCluster(t *testing.T, n int, cfg SessionConfig) (*Cluster, *Workstation, *ClusterClient, []string) {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("super%d", i+1)
	}
	cluster, err := NewCluster(ClusterConfig{ServerName: names[0], Link: LAN})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	for _, name := range names[1:] {
		if _, err := cluster.AddServer(name, DefaultServerConfig(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.EnablePeering(LAN); err != nil {
		t.Fatal(err)
	}
	ws := cluster.NewWorkstation("ws1")
	if cfg.Env.User == "" {
		cfg.Env = DefaultEnvironment("u")
	}
	cc, err := ws.ConnectCluster(context.Background(), cfg, names...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	return cluster, ws, cc, names
}

// nonOwnedDataPath returns a data-file path whose ring owner differs from
// the script's, so executing the job forces an instance-to-instance fetch.
func nonOwnedDataPath(t *testing.T, cc *ClusterClient, scriptPath string) string {
	t.Helper()
	scriptOwner, err := cc.Owner(scriptPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		p := fmt.Sprintf("/u/u/run%d/d.dat", i)
		owner, err := cc.Owner(p)
		if err != nil {
			t.Fatal(err)
		}
		if owner != scriptOwner {
			return p
		}
	}
	t.Fatal("no path with a different owner in 64 tries (ring broken?)")
	return ""
}

func TestClusterPeerDeltaForwarding(t *testing.T) {
	// The tentpole scenario: a job runs on the script's owner while a data
	// file lives on another instance. After the first cycle warms both
	// caches, a small edit must travel client -> file owner once and then
	// owner -> executing instance as a peer forward — never a second full
	// client transfer.
	cluster, ws, cc, names := newPeeredCluster(t, 3, SessionConfig{})

	script := "/u/u/run.job"
	write(t, ws, script, []byte("checksum d.dat\n"))
	dataPath := nonOwnedDataPath(t, cc, script)
	dataOwner, err := cc.Owner(dataPath)
	if err != nil {
		t.Fatal(err)
	}

	gen := workload.NewGenerator(11)
	content := gen.File(64 * 1024)

	runCycle := func() []byte {
		t.Helper()
		job, err := cc.Submit(context.Background(), script, []string{dataPath}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := cc.Wait(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Stdout
	}
	reference := func() []byte {
		return jobs.Execute(jobs.Request{
			Script: []byte("checksum d.dat\n"),
			Inputs: map[string][]byte{"d.dat": content},
		}).Stdout
	}

	for cyc := 0; cyc < 4; cyc++ {
		if cyc > 0 {
			content = gen.Modify(content, 2, workload.EditMixed)
		}
		write(t, ws, dataPath, content)
		if got, want := runCycle(), reference(); !bytes.Equal(got, want) {
			t.Fatalf("cycle %d output = %q, want %q", cyc, got, want)
		}
	}

	// Send-side accounting: the data file's owner forwarded versions to the
	// executing instance, as deltas or chunk manifests, never full files
	// (the peer protocol has no full-file frame).
	snap := cluster.ServerNamed(dataOwner).Metrics()
	if snap.PeerForwards == 0 {
		t.Fatalf("owner %s forwarded nothing to peers: %+v", dataOwner, snap)
	}
	if snap.PeerDeltaBytes+snap.PeerManifestBytes == 0 {
		t.Fatalf("owner %s peer forwards carried no delta/manifest payload: %+v", dataOwner, snap)
	}
	var misses int64
	for _, name := range names {
		misses += cluster.ServerNamed(name).Metrics().OwnerMisses
	}
	if misses != 0 {
		t.Fatalf("owner misses with all members alive = %d, want 0", misses)
	}
}

func TestClusterCoalescesHotFileAcrossInstances(t *testing.T) {
	// Cross-cluster single-winner: two instances need the same new version
	// at once — the owner pulls from the client exactly once; the other
	// instance gets a peer forward (or parks on the owner's in-flight pull).
	cluster, ws, cc, names := newPeeredCluster(t, 3, SessionConfig{})

	// Two scripts with different owners, both reading the same data file.
	scriptA := "/u/u/a.job"
	write(t, ws, scriptA, []byte("checksum hot.dat\n"))
	var scriptB string
	ownerA, err := cc.Owner(scriptA)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64 && scriptB == ""; i++ {
		p := fmt.Sprintf("/u/u/b%d.job", i)
		if owner, err := cc.Owner(p); err != nil {
			t.Fatal(err)
		} else if owner != ownerA {
			scriptB = p
		}
	}
	if scriptB == "" {
		t.Fatal("no second script with a different owner")
	}
	write(t, ws, scriptB, []byte("wc hot.dat\n"))

	gen := workload.NewGenerator(23)
	content := gen.File(32 * 1024)
	for cyc := 0; cyc < 3; cyc++ {
		if cyc > 0 {
			content = gen.Modify(content, 2, workload.EditMixed)
		}
		write(t, ws, "/u/u/hot.dat", content)
		jobA, err := cc.Submit(context.Background(), scriptA, []string{"/u/u/hot.dat"}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jobB, err := cc.Submit(context.Background(), scriptB, []string{"/u/u/hot.dat"}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		recA, err := cc.Wait(context.Background(), jobA)
		if err != nil {
			t.Fatal(err)
		}
		recB, err := cc.Wait(context.Background(), jobB)
		if err != nil {
			t.Fatal(err)
		}
		wantA := jobs.Execute(jobs.Request{Script: []byte("checksum hot.dat\n"),
			Inputs: map[string][]byte{"hot.dat": content}}).Stdout
		wantB := jobs.Execute(jobs.Request{Script: []byte("wc hot.dat\n"),
			Inputs: map[string][]byte{"hot.dat": content}}).Stdout
		if !bytes.Equal(recA.Stdout, wantA) || !bytes.Equal(recB.Stdout, wantB) {
			t.Fatalf("cycle %d outputs diverged", cyc)
		}
	}

	var forwards int64
	for _, name := range names {
		forwards += cluster.ServerNamed(name).Metrics().PeerForwards
	}
	if forwards == 0 {
		t.Fatal("hot file never traveled instance-to-instance")
	}
}

func TestClusterOwnerFailover(t *testing.T) {
	// Killing a member re-homes its files: the routed client walks the
	// ring's successor list, the executing instance falls back to pulling
	// from the client, and the job still completes correctly.
	cluster, ws, cc, _ := newPeeredCluster(t, 3, SessionConfig{
		Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})

	script := "/u/u/run.job"
	write(t, ws, script, []byte("checksum d.dat\n"))
	dataPath := nonOwnedDataPath(t, cc, script)

	gen := workload.NewGenerator(31)
	content := gen.File(16 * 1024)
	write(t, ws, dataPath, content)

	job, err := cc.Submit(context.Background(), script, []string{dataPath}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Wait(context.Background(), job); err != nil {
		t.Fatal(err)
	}

	// Kill the script's owner — the more disruptive victim: both the
	// routed submit and the job's run site must move.
	victim, err := cc.Owner(script)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.StopServer(victim); err != nil {
		t.Fatal(err)
	}

	content = gen.Modify(content, 3, workload.EditMixed)
	write(t, ws, dataPath, content)
	job2, err := cc.Submit(context.Background(), script, []string{dataPath}, SubmitOptions{})
	if err != nil {
		t.Fatalf("submit after owner death: %v", err)
	}
	if job2.Member == victim {
		t.Fatalf("job re-routed to the dead member %s", victim)
	}
	rec, err := cc.Wait(context.Background(), job2)
	if err != nil {
		t.Fatalf("wait after owner death: %v", err)
	}
	want := jobs.Execute(jobs.Request{
		Script: []byte("checksum d.dat\n"),
		Inputs: map[string][]byte{"d.dat": content},
	}).Stdout
	if !bytes.Equal(rec.Stdout, want) {
		t.Fatalf("failover output = %q, want %q", rec.Stdout, want)
	}
	if cc.OwnerMisses() == 0 {
		t.Fatal("failover routed without recording an owner miss")
	}
}

// runClusterChaosWorkload runs a fixed seeded edit-submit-wait workload on a
// fresh 3-instance cluster with drop faults on every workstation link, and
// returns the concatenation of all delivered outputs.
func runClusterChaosWorkload(t *testing.T, seed int64) []byte {
	t.Helper()
	cluster, ws, cc, names := newPeeredCluster(t, 3, SessionConfig{
		Retry: RetryPolicy{MaxAttempts: 40, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	for _, name := range names {
		link, ok := cluster.Network.LinkBetween("ws1", name)
		if !ok {
			t.Fatalf("no link between ws1 and %s", name)
		}
		link.SetFaults(FaultSpec{Seed: seed, DropRate: 0.05})
	}

	write(t, ws, "/u/u/run.job", []byte("sort d.dat\nchecksum d.dat\n"))
	gen := workload.NewGenerator(seed)
	content := gen.File(24 * 1024)

	var out bytes.Buffer
	for cyc := 0; cyc < 6; cyc++ {
		if cyc > 0 {
			content = gen.Modify(content, 3, workload.EditMixed)
		}
		write(t, ws, "/u/u/d.dat", content)
		job, err := cc.Submit(context.Background(), "/u/u/run.job", []string{"/u/u/d.dat"}, SubmitOptions{})
		if err != nil {
			t.Fatalf("cycle %d submit: %v", cyc, err)
		}
		rec, err := cc.Wait(context.Background(), job)
		if err != nil {
			t.Fatalf("cycle %d wait: %v", cyc, err)
		}
		want := jobs.Execute(jobs.Request{
			Script: []byte("sort d.dat\nchecksum d.dat\n"),
			Inputs: map[string][]byte{"d.dat": content},
		}).Stdout
		if !bytes.Equal(rec.Stdout, want) {
			t.Fatalf("cycle %d output = %q, want %q", cyc, rec.Stdout, want)
		}
		out.Write(rec.Stdout)
	}
	return out.Bytes()
}

func TestClusterChaosDeterministicOutput(t *testing.T) {
	// Two runs of the same seeded chaos workload on separate clusters must
	// deliver byte-identical client-visible output: frame drops, retries
	// and peer forwarding may reorder transfers but never change content.
	first := runClusterChaosWorkload(t, 97)
	second := runClusterChaosWorkload(t, 97)
	if !bytes.Equal(first, second) {
		t.Fatal("same seed produced different client-visible output")
	}
}

// newTracedPeeredCluster builds a peered cluster whose members and client
// all share ONE tracer, each observer stamping spans with its own host's
// virtual clock — the setup under which a cross-member cycle must produce
// a single causal trace.
func newTracedPeeredCluster(t *testing.T, n int) (*Cluster, *Workstation, *ClusterClient, []string, *trace.Tracer) {
	t.Helper()
	tracer := trace.New(trace.Config{})
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("super%d", i+1)
	}
	// Server observers need their host clocks before the hosts exist (the
	// cluster creates them), so the closures late-bind through the map;
	// until a host is registered the clock reads a deterministic zero.
	var mu sync.Mutex
	hosts := make(map[string]*netsim.Host, n)
	obsFor := func(name string) *obs.Observer {
		o := obs.New(nil, func() time.Duration {
			mu.Lock()
			h := hosts[name]
			mu.Unlock()
			if h == nil {
				return 0
			}
			return h.Now()
		})
		o.SetTracer(tracer)
		return o
	}
	scfg := DefaultServerConfig(names[0])
	scfg.Obs = obsFor(names[0])
	cluster, err := NewCluster(ClusterConfig{ServerName: names[0], Link: LAN, Server: &scfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	for _, name := range names[1:] {
		cfg := DefaultServerConfig(name)
		cfg.Obs = obsFor(name)
		if _, err := cluster.AddServer(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	for _, name := range names {
		hosts[name] = cluster.Network.Host(name)
	}
	mu.Unlock()
	if err := cluster.EnablePeering(LAN); err != nil {
		t.Fatal(err)
	}
	ws := cluster.NewWorkstation("ws1")
	cobs := obs.New(nil, ws.Host().Now)
	cobs.SetTracer(tracer)
	cc, err := ws.ConnectCluster(context.Background(), SessionConfig{Env: DefaultEnvironment("u"), Obs: cobs}, names...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	return cluster, ws, cc, names, tracer
}

func TestClusterPeerTracePropagation(t *testing.T) {
	// The observability tentpole's acceptance: a cycle whose job input is
	// owned by a different member than its script must yield ONE trace
	// spanning both instances — the executing member's peer.fetch span and,
	// stitched under it by the trace context carried on the peer frames,
	// the owner's peer.serve span.
	cluster, ws, cc, names, tracer := newTracedPeeredCluster(t, 3)

	script := "/u/u/run.job"
	write(t, ws, script, []byte("checksum d.dat\n"))
	dataPath := nonOwnedDataPath(t, cc, script)

	gen := workload.NewGenerator(41)
	content := gen.File(32 * 1024)
	for cyc := 0; cyc < 3; cyc++ {
		if cyc > 0 {
			content = gen.Modify(content, 2, workload.EditMixed)
		}
		write(t, ws, dataPath, content)
		job, err := cc.Submit(context.Background(), script, []string{dataPath}, SubmitOptions{})
		if err != nil {
			t.Fatalf("cycle %d submit: %v", cyc, err)
		}
		if _, err := cc.Wait(context.Background(), job); err != nil {
			t.Fatalf("cycle %d wait: %v", cyc, err)
		}
	}
	// The /peerz surfaces populated along the way: the executing member's
	// links counted inbound answers, the owner's peer sessions counted what
	// they served, and tracing being on gave each link — a session, user
	// "peer" — a flight recorder on /flightz.
	var answersIn, served int64
	var flights int
	for _, name := range names {
		srv := cluster.ServerNamed(name)
		for _, l := range srv.PeerLinks() {
			answersIn += l.DeltasIn + l.ChunksIn
		}
		for _, ps := range srv.PeerSessions() {
			served += ps.Served
		}
		for _, f := range srv.SessionFlights() {
			if f.User == "peer" {
				flights++
			}
		}
	}
	if answersIn == 0 {
		t.Fatal("no peer link recorded an inbound delta or chunk answer")
	}
	if served == 0 {
		t.Fatal("no peer session recorded a served fetch")
	}
	if flights == 0 {
		t.Fatal("tracing is on but no peer link has a flight recorder")
	}

	// Quiesce: peer spans finish on server goroutines; closing the client
	// and the cluster drains every session and peer link first.
	_ = cc.Close()
	cluster.Close()

	recs := tracer.Slowest(0)
	var hit *trace.Record
	for i := range recs {
		var fetch, serve *trace.Span
		for j := range recs[i].Spans {
			sp := &recs[i].Spans[j]
			switch sp.Name {
			case "peer.fetch":
				fetch = sp
			case "peer.serve":
				serve = sp
			}
		}
		if fetch == nil || serve == nil {
			continue
		}
		if serve.Parent != fetch.ID {
			t.Fatalf("trace %d: peer.serve parent = %d, want the peer.fetch span id %d",
				recs[i].ID, serve.Parent, fetch.ID)
		}
		if fetch.Parent == 0 {
			t.Fatalf("trace %d: peer.fetch is a root — it must hang off the requester's cycle", recs[i].ID)
		}
		// The fetch's parent must itself be a span of this trace (the job's
		// input-gathering path on the executing member), proving one causal
		// chain rather than two parallel traces.
		parentInTrace := false
		for j := range recs[i].Spans {
			if recs[i].Spans[j].ID == fetch.Parent {
				parentInTrace = true
			}
		}
		if !parentInTrace {
			t.Fatalf("trace %d: peer.fetch parent %d is not a span of the trace", recs[i].ID, fetch.Parent)
		}
		hit = &recs[i]
		break
	}
	if hit == nil {
		t.Fatalf("no trace contains both peer.fetch and peer.serve (%d traces completed)", len(recs))
	}

	// The stitched trace must survive the Chrome export: both span names
	// present in /tracez?id=N&format=chrome served by any member.
	h := admin.NewHandler(admin.Options{Server: cluster.ServerNamed(names[0])})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", fmt.Sprintf("/tracez?id=%d&format=chrome", hit.ID), nil))
	if rr.Code != 200 {
		t.Fatalf("chrome export = %d:\n%s", rr.Code, rr.Body.String())
	}
	if body := rr.Body.String(); !strings.Contains(body, "peer.fetch") || !strings.Contains(body, "peer.serve") {
		t.Fatalf("chrome export missing peer spans:\n%s", body)
	}

	// Ring heat rode along with the cycles: every member counted demand,
	// and the executing member's links report peer fetch traffic.
	var touches int64
	for _, name := range names {
		touches += cluster.ServerNamed(name).Metrics().FileTouches
	}
	if touches == 0 {
		t.Fatal("no file touches recorded across the cluster")
	}
}
