package server

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"shadowedit/internal/diff"
	"shadowedit/internal/netsim"
	"shadowedit/internal/wire"
)

// joinTestCluster places a rig's server on a two-member ring whose remote
// member can never be dialed — enough to exercise every owner-side peer path
// without a second live server.
func joinTestCluster(srv *Server) {
	srv.JoinCluster(ClusterSpec{
		Instance: "super",
		Members:  []string{"super", "other"},
		Dial: func(string) (wire.Conn, error) {
			return nil, errors.New("unreachable")
		},
	})
}

// dialSecond opens another wire-level connection to the rig's server.
func (r *rig) dialSecond(t *testing.T) *netsim.Conn {
	t.Helper()
	conn, err := r.host.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

func sendOn(t *testing.T, conn *netsim.Conn, m wire.Message) {
	t.Helper()
	if err := wire.Send(conn, m); err != nil {
		t.Fatalf("send %v: %v", m.Kind(), err)
	}
}

func helloOn(t *testing.T, conn *netsim.Conn) {
	t.Helper()
	sendOn(t, conn, &wire.Hello{Protocol: wire.ProtocolVersion, User: "shadowd", Domain: "cluster", ClientHost: "other"})
	if m := recvWithin(t, conn, 5*time.Second); m.Kind() != wire.KindHelloOK {
		t.Fatalf("hello reply = %#v", m)
	}
}

// parkedPeerWaiters counts the parked peer requests across all files.
func parkedPeerWaiters(s *Server) int {
	s.peerWaitMu.Lock()
	defer s.peerWaitMu.Unlock()
	n := 0
	for _, list := range s.peerWaiters {
		n += len(list)
	}
	return n
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition never held: %s", what)
}

// TestPeerFramesOnUnclusteredServerRejected pins the crash a crafted v5
// client could trigger on a default single-server deployment: PEER_HELLO
// used to be accepted without checking cluster membership, after which a
// PEER_NOTIFY racing an in-flight fetch parked on the (nil, pre-JoinCluster)
// waiter map and panicked the whole process. The handshake is refused now,
// the session never gains peer standing, and the server keeps serving.
func TestPeerFramesOnUnclusteredServerRejected(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	// Put a fetch in flight for the file — the state the old panic needed.
	r.send(t, &wire.Notify{File: testRef, Version: 1, Size: 4, Sum: 1})
	if m := r.recv(t); m.Kind() != wire.KindPull {
		t.Fatalf("notify reply = %v, want eager pull", m.Kind())
	}

	mal := r.dialSecond(t)
	helloOn(t, mal)
	sendOn(t, mal, &wire.PeerHello{Instance: "evil"})
	if m := recvWithin(t, mal, 5*time.Second); m.Kind() != wire.KindError {
		t.Fatalf("PEER_HELLO on unclustered server answered %v, want error", m.Kind())
	}
	sendOn(t, mal, &wire.PeerNotify{File: testRef, WantVersion: 1})
	if m := recvWithin(t, mal, 5*time.Second); m.Kind() != wire.KindError {
		t.Fatalf("PEER_NOTIFY without peer standing answered %v, want error", m.Kind())
	}

	// The server survived and still serves ordinary traffic.
	r.sendFull(t, testRef, 1, []byte("ok\n"))
}

// TestPeerWaiterDeclinedWhenFlightAbandoned covers the stranded-requester
// path: a peer request parked on an in-flight client pull whose session dies
// with no other session to re-home the fetch onto. The abandoned flight must
// decline the parked peer (negative PEER_DELTA) so the requester falls back
// to its own client instead of hanging on a healthy link forever.
func TestPeerWaiterDeclinedWhenFlightAbandoned(t *testing.T) {
	r := newRig(t, Config{})
	joinTestCluster(r.srv)
	r.hello(t)
	r.send(t, &wire.Notify{File: testRef, Version: 1, Size: 4, Sum: 1})
	if m := r.recv(t); m.Kind() != wire.KindPull {
		t.Fatalf("notify reply = %v, want eager pull", m.Kind())
	}

	peer := r.dialSecond(t)
	helloOn(t, peer)
	sendOn(t, peer, &wire.PeerHello{Instance: "other"})
	sendOn(t, peer, &wire.PeerNotify{File: testRef, WantVersion: 1})
	eventually(t, "peer request parked on the in-flight pull", func() bool {
		return parkedPeerWaiters(r.srv) == 1
	})

	// The pulling client dies; nothing else can re-home the fetch.
	_ = r.conn.Close()
	m := recvWithin(t, peer, 5*time.Second)
	pd, ok := m.(*wire.PeerDelta)
	if !ok || !pd.Negative() {
		t.Fatalf("abandoned waiter got %#v, want negative PeerDelta", m)
	}
	if parkedPeerWaiters(r.srv) != 0 {
		t.Fatal("declined waiter still parked")
	}
}

// TestDeadPeerSessionPurgedFromWaiters: a peer session that disconnects
// while parked must be removed from the waiter map, not retained until (or
// answered after) an arrival that can only fail to reach it.
func TestDeadPeerSessionPurgedFromWaiters(t *testing.T) {
	r := newRig(t, Config{})
	joinTestCluster(r.srv)
	r.hello(t)
	r.send(t, &wire.Notify{File: testRef, Version: 1, Size: 4, Sum: 1})
	if m := r.recv(t); m.Kind() != wire.KindPull {
		t.Fatalf("notify reply = %v, want eager pull", m.Kind())
	}

	peer := r.dialSecond(t)
	helloOn(t, peer)
	sendOn(t, peer, &wire.PeerHello{Instance: "other"})
	sendOn(t, peer, &wire.PeerNotify{File: testRef, WantVersion: 1})
	eventually(t, "peer request parked on the in-flight pull", func() bool {
		return parkedPeerWaiters(r.srv) == 1
	})

	_ = peer.Close()
	eventually(t, "dead peer session purged from waiters", func() bool {
		return parkedPeerWaiters(r.srv) == 0
	})

	// The pull's arrival finds no stale waiter and installs normally.
	r.sendFull(t, testRef, 1, []byte("late\n"))
}

// TestPeerForwardBytesSavedClamped: a delta that encodes larger than the
// content it produces (tiny file) must not drive the fleet-summed
// delta_bytes_saved counter negative when forwarded to a peer.
func TestPeerForwardBytesSavedClamped(t *testing.T) {
	r := newRig(t, Config{})
	joinTestCluster(r.srv)
	r.hello(t)
	r.sendFull(t, testRef, 1, []byte("a\n"))
	d, err := diff.Compute(diff.HuntMcIlroy, []byte("a\n"), []byte("b\n"))
	if err != nil {
		t.Fatal(err)
	}
	enc := d.Encode()
	if len(enc) <= 2 {
		t.Fatalf("delta encodes in %d bytes; test needs it larger than the 2-byte content", len(enc))
	}
	r.send(t, &wire.FileDelta{File: testRef, BaseVersion: 1, Version: 2, Encoded: enc})
	if ack, ok := r.recv(t).(*wire.FileAck); !ok || ack.Version != 2 {
		t.Fatalf("ack = %#v", ack)
	}

	peer := r.dialSecond(t)
	helloOn(t, peer)
	sendOn(t, peer, &wire.PeerHello{Instance: "other"})
	sendOn(t, peer, &wire.PeerNotify{File: testRef, HaveVersion: 1, WantVersion: 2})
	m := recvWithin(t, peer, 5*time.Second)
	if pd, ok := m.(*wire.PeerDelta); !ok || pd.Negative() {
		t.Fatalf("peer answer = %#v, want forwarded delta", m)
	}
	snap := r.srv.Metrics()
	if snap.PeerForwards != 1 {
		t.Fatalf("PeerForwards = %d, want 1", snap.PeerForwards)
	}
	if snap.DeltaBytesSaved != 0 {
		t.Fatalf("DeltaBytesSaved = %d, want 0 (clamped)", snap.DeltaBytesSaved)
	}
}

// TestPeerDeltaDroppedWithCacheEntry: the retained forwarding delta must
// leave with its cache entry, keeping lastDeltas bounded by the cache.
func TestPeerDeltaDroppedWithCacheEntry(t *testing.T) {
	srv := New(Defaults("super"))
	defer srv.Close()
	joinTestCluster(srv)
	id := srv.dir.Intern(testRef)
	if err := srv.cache.Put(id, 2, []byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	srv.notePeerDelta(id, &wire.FileDelta{File: testRef, BaseVersion: 1, Version: 2, Encoded: []byte("e")}, 6)
	if srv.peerDeltaFor(id) == nil {
		t.Fatal("delta not retained")
	}
	if !srv.cache.Evict(id) {
		t.Fatal("evict reported the entry missing")
	}
	if srv.peerDeltaFor(id) != nil {
		t.Fatal("retained peer delta survived its cache entry's eviction")
	}
}

// TestPeerDeltaDroppedWhenResultDoesNotFit: a client delta whose result is
// over the cache's capacity is rejected by the cache, which drops the stale
// base too. The delta is recorded before that write, so the evict hook takes
// it along; recorded after, it would be retained for a file no longer cached.
func TestPeerDeltaDroppedWhenResultDoesNotFit(t *testing.T) {
	cfg := Defaults("super")
	cfg.CacheCapacity = 64
	r := newRig(t, cfg)
	joinTestCluster(r.srv)
	r.hello(t)
	base := []byte("short\n")
	target := bytes.Repeat([]byte("this version does not fit\n"), 8)
	r.sendFull(t, testRef, 1, base)
	d, err := diff.Compute(diff.HuntMcIlroy, base, target)
	if err != nil {
		t.Fatal(err)
	}
	r.send(t, &wire.FileDelta{File: testRef, BaseVersion: 1, Version: 2, Encoded: d.Encode()})
	if ack, ok := r.recv(t).(*wire.FileAck); !ok || ack.Version != 2 {
		t.Fatalf("ack = %#v", ack)
	}
	id := r.srv.dir.Intern(testRef)
	if _, ok := r.srv.cache.Version(id); ok {
		t.Fatal("test premise: the over-capacity put should have emptied the entry")
	}
	if r.srv.peerDeltaFor(id) != nil {
		t.Fatal("retained peer delta outlived the cache entry it shadows")
	}
}

// TestCloseWaitsForLinkTeardown: a link is a session, so it is in the server's
// wait group like any other and Close returns only after its teardown — the
// re-homing of every fetch it held — has finished. Both members of a
// two-member cluster are closed while a peer fetch is parked mid-flight;
// afterwards no goroutine of either server is left and neither logs again.
func TestCloseWaitsForLinkTeardown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var closed atomic.Bool
	var late atomic.Int64
	nw := netsim.New()
	hosts := map[string]*netsim.Host{"a": nw.Host("a"), "b": nw.Host("b"), "ws": nw.Host("ws")}
	nw.Connect(hosts["a"], hosts["b"], netsim.LAN)
	nw.Connect(hosts["ws"], hosts["a"], netsim.LAN)
	nw.Connect(hosts["ws"], hosts["b"], netsim.LAN)
	srvs := map[string]*Server{}
	var lsts []*netsim.Listener
	for _, name := range []string{"a", "b"} {
		name := name
		cfg := Defaults(name)
		cfg.Logf = func(string, ...any) {
			if closed.Load() {
				late.Add(1)
			}
		}
		srv := New(cfg)
		srv.JoinCluster(ClusterSpec{
			Instance: name,
			Members:  []string{"a", "b"},
			Dial:     func(member string) (wire.Conn, error) { return hosts[name].Dial(member, 1) },
		})
		lst, err := hosts[name].Listen(1)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(AcceptorFunc(func() (wire.Conn, error) { return lst.Accept() })) }()
		srvs[name], lsts = srv, append(lsts, lst)
	}
	dial := func(member string) *netsim.Conn {
		conn, err := hosts["ws"].Dial(member, 1)
		if err != nil {
			t.Fatal(err)
		}
		sendOn(t, conn, &wire.Hello{Protocol: wire.ProtocolVersion, User: "u", Domain: "d", ClientHost: "ws"})
		if m := recvWithin(t, conn, 5*time.Second); m.Kind() != wire.KindHelloOK {
			t.Fatalf("hello reply = %#v", m)
		}
		return conn
	}
	onA, onB := dial("a"), dial("b")
	var ref wire.FileRef
	for i := 0; srvs["a"].ownsFile(ref) || ref.FileID == ""; i++ {
		ref = wire.FileRef{Domain: "d", FileID: fmt.Sprintf("ws:/u/f%d.dat", i)}
	}

	// b, the owner, starts pulling v1 from the client, which never answers;
	// a job on a needs v1, so a's link asks b, and b parks the request.
	sendOn(t, onB, &wire.Notify{File: ref, Version: 1, Size: 4, Sum: 1})
	if m := recvWithin(t, onB, 5*time.Second); m.Kind() != wire.KindPull {
		t.Fatalf("owner answered the notify with %v, want a pull", m.Kind())
	}
	sendOn(t, onA, &wire.Submit{Script: []byte("checksum in\n"), Inputs: []wire.JobInput{{File: ref, Version: 1, As: "in"}}})
	if m := recvWithin(t, onA, 5*time.Second); m.Kind() != wire.KindSubmitOK {
		t.Fatalf("submit reply = %#v", m)
	}
	eventually(t, "peer fetch parked on the owner's pull", func() bool { return parkedPeerWaiters(srvs["b"]) == 1 })
	if links := srvs["a"].PeerLinks(); len(links) != 1 || links[0].State != "up" {
		t.Fatalf("requester's links = %+v, want one live link", links)
	}

	for _, lst := range lsts {
		_ = lst.Close()
	}
	srvs["b"].Close() // a's link dies under a's feet and re-homes its fetch ...
	srvs["a"].Close() // ... and a's Close waits for that
	closed.Store(true)
	_, _ = onA.Close(), onB.Close()
	eventually(t, "every server goroutine exited", func() bool { return runtime.NumGoroutine() <= baseline })
	if n := late.Load(); n != 0 {
		t.Fatalf("%d log lines written after Close returned", n)
	}
}
