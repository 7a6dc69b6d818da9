package server

import (
	"testing"
	"time"

	"shadowedit/internal/diff"
	"shadowedit/internal/netsim"
	"shadowedit/internal/wire"
)

// dialSameIdentity opens a wire-level connection claiming the given
// (user, clientHost) identity, regardless of which simulated host carries it.
func dialSameIdentity(t *testing.T, nw *netsim.Network, serverHost *netsim.Host, simHost string) *netsim.Conn {
	t.Helper()
	host := nw.Host(simHost)
	nw.Connect(host, serverHost, netsim.LAN)
	conn, err := host.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Send(conn, &wire.Hello{
		Protocol: wire.ProtocolVersion, User: "u", Domain: "d", ClientHost: "ws",
	}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Recv(conn); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*wire.HelloOK); !ok {
		t.Fatalf("hello reply = %#v", m)
	}
	return conn
}

// recvWithin receives one message or fails the test after the timeout —
// a plain Recv would turn a regression into a hang.
func recvWithin(t *testing.T, conn *netsim.Conn, d time.Duration) wire.Message {
	t.Helper()
	type result struct {
		m   wire.Message
		err error
	}
	ch := make(chan result, 1)
	go func() {
		m, err := wire.Recv(conn)
		ch <- result{m, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("recv: %v", r.err)
		}
		return r.m
	case <-time.After(d):
		t.Fatalf("no message within %v", d)
		return nil
	}
}

// TestRepullSurvivesCoalescedOwnerDeath pins the reconnect interleaving that
// used to strand a job in fetching forever: session A owns the in-flight
// pull for a job input; the client re-attaches as session B, whose pull for
// the same input coalesces onto A's flight; then A dies. Releasing A's
// flight must re-issue the pull on B — B is not any waiter's submitting
// session (the job's sess pointer still names A), so the fallback has to
// find it by owner identity.
func TestRepullSurvivesCoalescedOwnerDeath(t *testing.T) {
	nw := netsim.New()
	serverHost := nw.Host("super")
	lst, err := serverHost.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Defaults("super"))
	go func() {
		_ = srv.Serve(AcceptorFunc(func() (wire.Conn, error) { return lst.Accept() }))
	}()
	t.Cleanup(func() {
		_ = lst.Close()
		srv.Close()
	})

	ref := wire.FileRef{Domain: "d", FileID: "ws:/d.dat"}
	content := []byte("input payload\n")

	connA := dialSameIdentity(t, nw, serverHost, "wsA")
	// A notifies v1: the eager policy pulls immediately; A now owns the
	// flight for (ref, v1) and deliberately never answers.
	if err := wire.Send(connA, &wire.Notify{File: ref, Version: 1, Size: int64(len(content)), Sum: diff.Checksum(content)}); err != nil {
		t.Fatal(err)
	}
	if m := recvWithin(t, connA, 5*time.Second); m.Kind() != wire.KindPull {
		t.Fatalf("expected pull on A, got %#v", m)
	}
	// A submits a job needing that input: the job registers as a waiter
	// with sess = A's session.
	if err := wire.Send(connA, &wire.Submit{
		Script: []byte("checksum d\n"),
		Inputs: []wire.JobInput{{File: ref, Version: 1, As: "d"}},
	}); err != nil {
		t.Fatal(err)
	}
	okMsg, ok := recvWithin(t, connA, 5*time.Second).(*wire.SubmitOK)
	if !ok {
		t.Fatalf("expected submit ok on A")
	}

	// The client re-attaches as B (same identity). B's hello re-pulls the
	// waiting input, which coalesces onto A's still-open flight: no Pull
	// reaches B yet. Round-trip a status request to prove the hello (and
	// its repull pass) fully completed.
	connB := dialSameIdentity(t, nw, serverHost, "wsB")
	if err := wire.Send(connB, &wire.StatusReq{Job: okMsg.Job}); err != nil {
		t.Fatal(err)
	}
	if m, ok := recvWithin(t, connB, 5*time.Second).(*wire.StatusReply); !ok {
		t.Fatalf("expected status reply on B, got %#v", m)
	} else if len(m.Jobs) != 1 || m.Jobs[0].State != wire.JobFetching {
		t.Fatalf("job status = %+v, want fetching", m.Jobs)
	}

	// A dies with the flight open. Releasing it must re-issue the pull on
	// B even though no waiter's session pointer names B.
	_ = connA.Close()
	m := recvWithin(t, connB, 5*time.Second)
	pull, ok := m.(*wire.Pull)
	if !ok || pull.File != ref || pull.WantVersion != 1 {
		t.Fatalf("expected re-issued pull on B, got %#v", m)
	}

	// B answers; the job must now run to completion and deliver on B.
	if err := wire.Send(connB, &wire.FileFull{File: ref, Version: 1, Content: content, Sum: diff.Checksum(content)}); err != nil {
		t.Fatal(err)
	}
	for {
		switch msg := recvWithin(t, connB, 5*time.Second).(type) {
		case *wire.FileAck:
			continue
		case *wire.Output:
			if msg.Job != okMsg.Job || msg.State != wire.JobDone {
				t.Fatalf("output = %+v", msg)
			}
			return
		default:
			t.Fatalf("unexpected message on B: %#v", msg)
		}
	}
}

// TestRepullFallsBackAcrossManyWaiters is the same scenario with several
// stranded jobs waiting on one input: one released flight must revive all of
// them through the surviving session.
func TestRepullFallsBackAcrossManyWaiters(t *testing.T) {
	nw := netsim.New()
	serverHost := nw.Host("super")
	lst, err := serverHost.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults("super")
	cfg.MaxConcurrentJobs = 4
	srv := New(cfg)
	go func() {
		_ = srv.Serve(AcceptorFunc(func() (wire.Conn, error) { return lst.Accept() }))
	}()
	t.Cleanup(func() {
		_ = lst.Close()
		srv.Close()
	})

	ref := wire.FileRef{Domain: "d", FileID: "ws:/shared.dat"}
	content := []byte("shared input\n")

	connA := dialSameIdentity(t, nw, serverHost, "wsA")
	if err := wire.Send(connA, &wire.Notify{File: ref, Version: 1, Size: int64(len(content)), Sum: diff.Checksum(content)}); err != nil {
		t.Fatal(err)
	}
	if m := recvWithin(t, connA, 5*time.Second); m.Kind() != wire.KindPull {
		t.Fatalf("expected pull on A, got %#v", m)
	}
	const jobsN = 3
	for i := 0; i < jobsN; i++ {
		if err := wire.Send(connA, &wire.Submit{
			Script: []byte("checksum d\n"),
			Inputs: []wire.JobInput{{File: ref, Version: 1, As: "d"}},
		}); err != nil {
			t.Fatal(err)
		}
		if _, ok := recvWithin(t, connA, 5*time.Second).(*wire.SubmitOK); !ok {
			t.Fatalf("submit %d not acked", i)
		}
	}

	connB := dialSameIdentity(t, nw, serverHost, "wsB")
	if err := wire.Send(connB, &wire.StatusReq{All: true}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvWithin(t, connB, 5*time.Second).(*wire.StatusReply); !ok {
		t.Fatal("no status reply on B")
	}
	_ = connA.Close()

	if m := recvWithin(t, connB, 5*time.Second); m.Kind() != wire.KindPull {
		t.Fatalf("expected re-issued pull on B, got %#v", m)
	}
	if err := wire.Send(connB, &wire.FileFull{File: ref, Version: 1, Content: content, Sum: diff.Checksum(content)}); err != nil {
		t.Fatal(err)
	}
	gotOutputs := 0
	for gotOutputs < jobsN {
		switch msg := recvWithin(t, connB, 5*time.Second).(type) {
		case *wire.FileAck:
		case *wire.Output:
			if msg.State != wire.JobDone {
				t.Fatalf("output = %+v", msg)
			}
			gotOutputs++
		default:
			t.Fatalf("unexpected message on B: %#v", msg)
		}
	}
}

// TestFetchRegisteredAfterEarlyDropIsSwept: a delivery that finds a session's
// writer dead drops the session before its receive loop has ended, and the
// loop may still handle a frame it had already read — registering a fetch on
// a session whose flights were swept a moment ago. When the loop then ends,
// its own dropSession must sweep again, or the flight outlives every session
// and each later pull of the file coalesces onto it for ever (found by the
// chaos gauntlet: a job stuck in "fetching" behind a flight owned by a
// session 700 sessions gone).
func TestFetchRegisteredAfterEarlyDropIsSwept(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	live := r.srv.sessions.snapshot()
	if len(live) != 1 {
		t.Fatalf("live sessions = %d, want 1", len(live))
	}
	r.srv.dropSession(live[0]) // as deliverOrHold does on a failed send
	r.send(t, &wire.Notify{File: testRef, Version: 1, Size: 3, Sum: 1})
	if p, ok := r.recv(t).(*wire.Pull); !ok || p.WantVersion != 1 {
		t.Fatalf("notify answered with %#v, want PULL", p)
	}
	if r.srv.InFlightFetches() != 1 {
		t.Fatalf("%d flights after the late notify, want the one it registered", r.srv.InFlightFetches())
	}
	_ = r.conn.Close()
	eventually(t, "the late flight swept when the receive loop ended", func() bool { return r.srv.InFlightFetches() == 0 })
}
