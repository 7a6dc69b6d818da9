package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"shadowedit/internal/naming"
	"shadowedit/internal/netsim"
	"shadowedit/internal/wire"
)

// dialRig is a fake server the client can redial: every accepted connection
// is handed to the test for scripting.
type dialRig struct {
	t     *testing.T
	conns chan *netsim.Conn
	dial  func() (wire.Conn, error)
	close func()
}

func newDialRig(t *testing.T) (*dialRig, *naming.Universe) {
	t.Helper()
	nw := netsim.New()
	ws := nw.Host("ws")
	super := nw.Host("super")
	nw.Connect(ws, super, netsim.LAN)
	lst, err := super.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lst.Close() })
	rig := &dialRig{t: t, conns: make(chan *netsim.Conn, 4)}
	go func() {
		for {
			c, err := lst.Accept()
			if err != nil {
				return
			}
			rig.conns <- c
		}
	}()
	rig.dial = func() (wire.Conn, error) { return ws.Dial("super", 1) }
	rig.close = func() { _ = lst.Close() }
	universe := naming.NewUniverse("dom")
	universe.AddHost("ws")
	return rig, universe
}

// connect starts Connect (which blocks on the handshake) and scripts the
// server half concurrently.
func (r *dialRig) connect(cfg Config) (*Client, *fakeServer) {
	r.t.Helper()
	type res struct {
		cl  *Client
		err error
	}
	done := make(chan res, 1)
	go func() {
		cl, err := Connect(context.Background(), nil, cfg)
		done <- res{cl, err}
	}()
	fs := r.accept(1)
	out := <-done
	if out.err != nil {
		r.t.Fatal(out.err)
	}
	r.t.Cleanup(func() { _ = out.cl.Close() })
	return out.cl, fs
}

// accept scripts the server side of one handshake and returns the session's
// connection.
func (r *dialRig) accept(session uint64) *fakeServer {
	r.t.Helper()
	var conn *netsim.Conn
	select {
	case conn = <-r.conns:
	case <-time.After(5 * time.Second):
		r.t.Fatal("client never dialed")
	}
	fs := &fakeServer{t: r.t, conn: conn}
	if _, ok := fs.recv().(*wire.Hello); !ok {
		r.t.Fatal("expected hello")
	}
	fs.send(&wire.HelloOK{Session: session, ServerName: "super"})
	return fs
}

// TestReconnectResumesSubmitExactlyOnce drops the connection after the
// client's SUBMIT but before SUBMIT_OK. The client must redial, say hello
// again, and re-submit under the same idempotency tag; a duplicate output
// delivery must be acknowledged but not applied twice.
func TestReconnectResumesSubmitExactlyOnce(t *testing.T) {
	rig, universe := newDialRig(t)
	if err := universe.WriteFile("ws", "/run.job", []byte("echo hi\n")); err != nil {
		t.Fatal(err)
	}
	cl, fs1 := rig.connect(Config{
		User: "u", Universe: universe, Host: "ws",
		Dial:  rig.dial,
		Retry: RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	})

	type result struct {
		job uint64
		err error
	}
	res := make(chan result, 1)
	go func() {
		job, err := cl.Submit(context.Background(), "/run.job", nil, SubmitOptions{})
		res <- result{job, err}
	}()

	sub1, ok := fs1.recv().(*wire.Submit)
	if !ok {
		t.Fatalf("expected submit, got %#v", sub1)
	}
	if sub1.ClientTag == 0 {
		t.Fatal("submit with Dial set carried no idempotency tag")
	}
	// The reply is lost with the connection.
	_ = fs1.conn.Close()

	fs2 := rig.accept(2)
	sub2, ok := fs2.recv().(*wire.Submit)
	if !ok {
		t.Fatalf("expected re-submit, got %#v", sub2)
	}
	if sub2.ClientTag != sub1.ClientTag {
		t.Fatalf("re-submit tag %d != original %d", sub2.ClientTag, sub1.ClientTag)
	}
	fs2.send(&wire.SubmitOK{Job: 7})
	r := <-res
	if r.err != nil || r.job != 7 {
		t.Fatalf("submit = %+v", r)
	}

	// Deliver the output twice, as a server re-attaching a session would
	// after an unacknowledged send: both must be acked, results applied once.
	out := &wire.Output{Job: 7, State: wire.JobDone, Mode: wire.OutputFull, Stdout: []byte("hi\n")}
	fs2.send(out)
	if ack, ok := fs2.recv().(*wire.OutputAck); !ok || ack.Job != 7 {
		t.Fatalf("expected ack, got %#v", ack)
	}
	fs2.send(out)
	if ack, ok := fs2.recv().(*wire.OutputAck); !ok || ack.Job != 7 {
		t.Fatalf("expected duplicate ack, got %#v", ack)
	}
	rec, err := cl.Wait(context.Background(), 7)
	if err != nil || string(rec.Stdout) != "hi\n" {
		t.Fatalf("wait = %+v, %v", rec, err)
	}

	snap := cl.Metrics()
	if snap.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1", snap.Reconnects)
	}
	if snap.Retries == 0 {
		t.Fatal("interrupted submit recorded no retry")
	}
}

// TestReconnectResyncsFileHeads verifies the fresh session re-announces
// committed file versions, so notifies lost with the old connection are
// recovered.
func TestReconnectResyncsFileHeads(t *testing.T) {
	rig, universe := newDialRig(t)
	if err := universe.WriteFile("ws", "/f", []byte("v1\n")); err != nil {
		t.Fatal(err)
	}
	cl, fs1 := rig.connect(Config{
		User: "u", Universe: universe, Host: "ws",
		Dial:  rig.dial,
		Retry: RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	})
	if _, err := cl.CommitAndNotify("/f"); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs1.recv().(*wire.Notify); !ok {
		t.Fatal("expected notify")
	}
	_ = fs1.conn.Close()

	fs2 := rig.accept(2)
	n, ok := fs2.recv().(*wire.Notify)
	if !ok || n.Version != 1 {
		t.Fatalf("resync notify = %#v", n)
	}
}

// TestReconnectGivesUpAfterMaxAttempts severs the connection and the
// listener: the supervisor must surface ErrRetriesExhausted to blocked
// callers instead of retrying forever.
func TestReconnectGivesUpAfterMaxAttempts(t *testing.T) {
	rig, universe := newDialRig(t)
	cl, fs := rig.connect(Config{
		User: "u", Universe: universe, Host: "ws",
		Dial:  rig.dial,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	rig.close() // no server to come back to
	_ = fs.conn.Close()

	_, err := cl.Wait(context.Background(), 1)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("wait err = %v, want ErrRetriesExhausted", err)
	}
}

// TestWaitHonorsContext covers both cancellation and deadline expiry while a
// job is outstanding.
func TestWaitHonorsContext(t *testing.T) {
	cl, _, _ := newPair(t)

	ctx, cancel := context.WithCancel(context.Background())
	go func() { cancel() }()
	if _, err := cl.Wait(ctx, 42); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait err = %v, want context.Canceled", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer dcancel()
	_, err := cl.Wait(dctx, 42)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("wait err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait err = %v should also match context.DeadlineExceeded", err)
	}
}

// TestWaitAnyHonorsContext verifies WaitAny unblocks promptly on deadline.
func TestWaitAnyHonorsContext(t *testing.T) {
	cl, _, _ := newPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := cl.WaitAny(ctx); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("waitany err = %v, want ErrDeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("WaitAny did not return promptly")
	}
}

// TestSubmitWithoutDialStaysFatal pins the compatibility contract: without a
// Dial function a connection loss ends the session, no retries.
func TestSubmitWithoutDialStaysFatal(t *testing.T) {
	cl, fs, universe := newPair(t)
	if err := universe.WriteFile("ws", "/run.job", []byte("echo hi\n")); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := cl.Submit(context.Background(), "/run.job", nil, SubmitOptions{})
		res <- err
	}()
	sub, ok := fs.recv().(*wire.Submit)
	if !ok {
		t.Fatalf("expected submit, got %#v", sub)
	}
	if sub.ClientTag != 0 {
		t.Fatalf("submit without Dial carried tag %d, want 0", sub.ClientTag)
	}
	_ = fs.conn.Close()
	if err := <-res; !errors.Is(err, ErrDisconnected) {
		t.Fatalf("submit err = %v, want ErrDisconnected", err)
	}
	if n := cl.Metrics().Reconnects; n != 0 {
		t.Fatalf("reconnects = %d, want 0", n)
	}
}

// TestCloseDuringRedialDoesNotHang: a Close that arrives while the
// supervisor's redial is succeeding finds no connection to close. The
// supervisor used to install the new connection regardless and read from it
// for ever, with Close waiting on it (seen as a stuck cluster test under
// load); it must notice the client is closed and end.
func TestCloseDuringRedialDoesNotHang(t *testing.T) {
	rig, universe := newDialRig(t)
	dialing, gate := make(chan struct{}), make(chan struct{})
	calls := 0
	cl, fs := rig.connect(Config{User: "u", Universe: universe, Host: "ws",
		Retry: RetryPolicy{BaseDelay: time.Millisecond},
		Dial: func() (wire.Conn, error) {
			if calls++; calls == 2 { // the supervisor's redial (one goroutine dials at a time)
				close(dialing)
				<-gate
			}
			return rig.dial()
		}})
	_ = fs.conn.Close()
	<-dialing
	closed := make(chan struct{})
	go func() {
		_ = cl.Close()
		close(closed)
	}()
	for marked := false; !marked; time.Sleep(time.Millisecond) {
		cl.mu.Lock()
		marked = cl.closed
		cl.mu.Unlock()
	}
	close(gate)
	rig.accept(2) // the redial's handshake succeeds
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close is still waiting for a supervisor that is reading from the connection it just installed")
	}
}
