package client

import (
	"context"

	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"shadowedit/internal/diff"
	"shadowedit/internal/env"
	"shadowedit/internal/naming"
	"shadowedit/internal/netsim"
	"shadowedit/internal/obs"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// fakeServer is a scripted wire-level peer for exercising the client.
type fakeServer struct {
	t    *testing.T
	conn *netsim.Conn
}

func newPair(t *testing.T) (*Client, *fakeServer, *naming.Universe) {
	t.Helper()
	// Every test runs with an observer attached, so the instrumented
	// paths (cycle stamping in particular) are exercised throughout.
	return newPairObserved(t, obs.New(nil, nil))
}

func newPairObserved(t *testing.T, o *obs.Observer) (*Client, *fakeServer, *naming.Universe) {
	t.Helper()
	universe := naming.NewUniverse("dom")
	universe.AddHost("ws")
	cl, fs := newPairConfig(t, Config{User: "u", Universe: universe, Host: "ws", Obs: o})
	return cl, fs, universe
}

// newPairConfig connects a client configured by cfg to a fresh fake server.
func newPairConfig(t *testing.T, cfg Config) (*Client, *fakeServer) {
	t.Helper()
	nw := netsim.New()
	wsHost := nw.Host("ws")
	srvHost := nw.Host("super")
	nw.Connect(wsHost, srvHost, netsim.LAN)
	lst, err := srvHost.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lst.Close() })

	accepted := make(chan *netsim.Conn, 1)
	go func() {
		c, err := lst.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	conn, err := wsHost.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Serve the hello by hand before Connect returns.
	done := make(chan *Client, 1)
	errCh := make(chan error, 1)
	go func() {
		cl, err := Connect(context.Background(), conn, cfg)
		if err != nil {
			errCh <- err
			return
		}
		done <- cl
	}()
	srvConn := <-accepted
	fs := &fakeServer{t: t, conn: srvConn}
	if _, ok := fs.recv().(*wire.Hello); !ok {
		t.Fatal("client did not send hello")
	}
	fs.send(&wire.HelloOK{Session: 1, ServerName: "super"})
	select {
	case cl := <-done:
		t.Cleanup(func() { _ = cl.Close() })
		return cl, fs
	case err := <-errCh:
		t.Fatal(err)
		return nil, nil
	}
}

func (f *fakeServer) send(m wire.Message) {
	f.t.Helper()
	if err := wire.Send(f.conn, m); err != nil {
		f.t.Fatalf("fake server send: %v", err)
	}
}

func (f *fakeServer) recv() wire.Message {
	f.t.Helper()
	m, err := wire.Recv(f.conn)
	if err != nil {
		f.t.Fatalf("fake server recv: %v", err)
	}
	return m
}

func TestConnectRejectsMissingUniverse(t *testing.T) {
	if _, err := Connect(context.Background(), nil, Config{User: "u"}); err == nil {
		t.Fatal("Connect without universe succeeded")
	}
}

func TestCommitAndNotifySendsNotifyOnce(t *testing.T) {
	cl, fs, universe := newPair(t)
	if err := universe.WriteFile("ws", "/f", []byte("v1\n")); err != nil {
		t.Fatal(err)
	}
	res, err := cl.CommitAndNotify("/f")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.File.FileID != "ws:/f" || !res.Changed() {
		t.Fatalf("commit = %+v", res)
	}
	n, ok := fs.recv().(*wire.Notify)
	if !ok || n.Version != 1 || n.Size != 3 {
		t.Fatalf("notify = %#v", n)
	}
	// Unchanged content: no second notify; verify by round-tripping a
	// status request and seeing it arrive next.
	res, err = cl.CommitAndNotify("/f")
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed() {
		t.Fatalf("unchanged recommit reported %d wire bytes", res.WireBytes)
	}
	go func() {
		// Answer the status request the test main goroutine sends.
	}()
	statusDone := make(chan error, 1)
	go func() {
		_, err := cl.StatusAll(context.Background())
		statusDone <- err
	}()
	if m := fs.recv(); m.Kind() != wire.KindStatusReq {
		t.Fatalf("expected status req next (no duplicate notify), got %v", m.Kind())
	}
	fs.send(&wire.StatusReply{})
	if err := <-statusDone; err != nil {
		t.Fatal(err)
	}
}

func TestClientAnswersPullWithDelta(t *testing.T) {
	cl, fs, universe := newPair(t)
	base := bytes.Repeat([]byte("line of stable content here\n"), 100)
	if err := universe.WriteFile("ws", "/f", base); err != nil {
		t.Fatal(err)
	}
	res, err := cl.CommitAndNotify("/f")
	if err != nil {
		t.Fatal(err)
	}
	ref := res.File
	fs.recv() // notify v1

	edited := append(append([]byte{}, base...), []byte("new tail line\n")...)
	if err := universe.WriteFile("ws", "/f", edited); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CommitAndNotify("/f"); err != nil {
		t.Fatal(err)
	}
	fs.recv() // notify v2

	fs.send(&wire.Pull{File: ref, HaveVersion: 1, WantVersion: 2})
	fd, ok := fs.recv().(*wire.FileDelta)
	if !ok {
		t.Fatalf("pull answer = %#v, want delta", fd)
	}
	d, err := diff.Decode(fd.Encoded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Apply(base)
	if err != nil || !bytes.Equal(got, edited) {
		t.Fatalf("delta does not reconstruct: %v", err)
	}

	// Ack prunes: after acking v2, version 1 becomes prunable (retain
	// default is 1 so it may be retained; check the ack is recorded).
	fs.send(&wire.FileAck{File: ref, Version: 2})
	deadline := time.After(2 * time.Second)
	for cl.Store().Acked(ref) != 2 {
		select {
		case <-deadline:
			t.Fatal("ack never recorded")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestClientAnswersPullForUnknownFileWithError(t *testing.T) {
	cl, fs, _ := newPair(t)
	_ = cl
	fs.send(&wire.Pull{File: wire.FileRef{Domain: "dom", FileID: "ghost"}, HaveVersion: 0, WantVersion: 1})
	m, ok := fs.recv().(*wire.ErrorMsg)
	if !ok || m.Code != wire.CodeUnknownFile {
		t.Fatalf("pull answer = %#v, want unknown-file error", m)
	}
}

func TestSubmitRoundTrip(t *testing.T) {
	cl, fs, universe := newPair(t)
	if err := universe.WriteFile("ws", "/run.job", []byte("wc d\n")); err != nil {
		t.Fatal(err)
	}
	if err := universe.WriteFile("ws", "/d", []byte("data\n")); err != nil {
		t.Fatal(err)
	}
	type result struct {
		job uint64
		err error
	}
	res := make(chan result, 1)
	go func() {
		job, err := cl.Submit(context.Background(), "/run.job", []string{"/d"}, SubmitOptions{})
		res <- result{job: job, err: err}
	}()
	if m := fs.recv(); m.Kind() != wire.KindNotify {
		t.Fatalf("expected notify for data file, got %v", m.Kind())
	}
	sub, ok := fs.recv().(*wire.Submit)
	if !ok {
		t.Fatalf("expected submit, got %#v", sub)
	}
	if len(sub.Inputs) != 1 || sub.Inputs[0].As != "d" {
		t.Fatalf("submit inputs = %+v", sub.Inputs)
	}
	fs.send(&wire.SubmitOK{Job: 99})
	r := <-res
	if r.err != nil || r.job != 99 {
		t.Fatalf("submit = %+v", r)
	}
	rec, ok := cl.Jobs().Get("super", 99)
	if !ok || rec.OutputFile != "job-99.out" {
		t.Fatalf("job record = %+v", rec)
	}
}

func TestSubmitServerError(t *testing.T) {
	cl, fs, universe := newPair(t)
	if err := universe.WriteFile("ws", "/run.job", []byte("wc d\n")); err != nil {
		t.Fatal(err)
	}
	if err := universe.WriteFile("ws", "/d", []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := cl.Submit(context.Background(), "/run.job", []string{"/d"}, SubmitOptions{})
		res <- err
	}()
	fs.recv() // notify
	fs.recv() // submit
	fs.send(&wire.ErrorMsg{Code: wire.CodeBadRequest, Text: "nope"})
	err := <-res
	var em *wire.ErrorMsg
	if !errors.As(err, &em) || em.Code != wire.CodeBadRequest {
		t.Fatalf("submit err = %v, want server error", err)
	}
}

func TestOutputDeliveryAndWait(t *testing.T) {
	cl, fs, universe := newPair(t)
	if err := universe.WriteFile("ws", "/run.job", []byte("echo hi\n")); err != nil {
		t.Fatal(err)
	}
	res := make(chan uint64, 1)
	go func() {
		job, err := cl.Submit(context.Background(), "/run.job", nil, SubmitOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		res <- job
	}()
	fs.recv() // submit (no data files, so no notify)
	fs.send(&wire.SubmitOK{Job: 5})
	job := <-res

	fs.send(&wire.Output{
		Job: job, State: wire.JobDone, ExitCode: 0,
		Mode: wire.OutputFull, Stdout: []byte("hi\n"),
	})
	rec, err := cl.Wait(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Stdout) != "hi\n" || !rec.Delivered {
		t.Fatalf("rec = %+v", rec)
	}
	if ack, ok := fs.recv().(*wire.OutputAck); !ok || ack.Job != job {
		t.Fatalf("expected output ack, got %#v", ack)
	}
	// Output file stored under the work dir.
	out, err := universe.ReadFile("ws", "/home/u/job-5.out")
	if err != nil || string(out) != "hi\n" {
		t.Fatalf("stored output: %q, %v", out, err)
	}
}

func TestOutputDeltaWithoutBaseRequestsFull(t *testing.T) {
	cl, fs, universe := newPair(t)
	if err := universe.WriteFile("ws", "/run.job", []byte("echo hi\n")); err != nil {
		t.Fatal(err)
	}
	res := make(chan uint64, 1)
	go func() {
		job, err := cl.Submit(context.Background(), "/run.job", nil, SubmitOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		res <- job
	}()
	fs.recv()
	fs.send(&wire.SubmitOK{Job: 6})
	job := <-res

	// An output delta whose base the client does not hold.
	d, err := diff.Compute(diff.HuntMcIlroy, []byte("prev output\n"), []byte("new output\n"))
	if err != nil {
		t.Fatal(err)
	}
	fs.send(&wire.Output{Job: job, State: wire.JobDone, Mode: wire.OutputDelta, Stdout: d.Encode()})
	if req, ok := fs.recv().(*wire.OutputFullReq); !ok || req.Job != job {
		t.Fatalf("expected output full request, got %#v", req)
	}
	// Server resends in full; Wait completes.
	fs.send(&wire.Output{Job: job, State: wire.JobDone, Mode: wire.OutputFull, Stdout: []byte("new output\n")})
	rec, err := cl.Wait(context.Background(), job)
	if err != nil || string(rec.Stdout) != "new output\n" {
		t.Fatalf("rec = %+v err %v", rec, err)
	}
}

func TestRoutedOutputForUnknownJobStored(t *testing.T) {
	cl, fs, universe := newPair(t)
	fs.send(&wire.Output{Job: 77, State: wire.JobDone, Mode: wire.OutputFull, Stdout: []byte("routed\n")})
	rec, err := cl.Wait(context.Background(), 77)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Stdout) != "routed\n" {
		t.Fatalf("rec = %+v", rec)
	}
	out, err := universe.ReadFile("ws", "/home/u/routed-job-77.out")
	if err != nil || string(out) != "routed\n" {
		t.Fatalf("routed output file: %q, %v", out, err)
	}
}

func TestWaitAfterDisconnectFails(t *testing.T) {
	cl, fs, _ := newPair(t)
	_ = fs.conn.Close()
	if _, err := cl.Wait(context.Background(), 123); err == nil {
		t.Fatal("Wait succeeded after disconnect")
	}
	if _, err := cl.StatusAll(context.Background()); err == nil {
		t.Fatal("StatusAll succeeded after disconnect")
	}
}

func TestStatusUpdatesJobDB(t *testing.T) {
	cl, fs, _ := newPair(t)
	done := make(chan error, 1)
	go func() {
		st, err := cl.Status(context.Background(), 4)
		if err == nil && st.State != wire.JobRunning {
			err = errors.New("wrong state")
		}
		done <- err
	}()
	if m := fs.recv(); m.Kind() != wire.KindStatusReq {
		t.Fatalf("got %v", m.Kind())
	}
	fs.send(&wire.StatusReply{Jobs: []wire.JobStatus{{Job: 4, State: wire.JobRunning, Detail: "busy"}}})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rec, ok := cl.Jobs().Get("super", 4)
	if !ok || rec.State != wire.JobRunning {
		t.Fatalf("jobdb rec = %+v", rec)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	cl, _, _ := newPair(t)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEnvironmentDefaultsApplied(t *testing.T) {
	cl, _, _ := newPair(t)
	environment := cl.Environment()
	if environment.User != "u" {
		t.Fatalf("env user = %q", environment.User)
	}
	if environment.Algorithm != diff.HuntMcIlroy {
		t.Fatal("default algorithm wrong")
	}
}

func TestConnectValidatesEnvironment(t *testing.T) {
	u := naming.NewUniverse("d")
	u.AddHost("ws")
	bad := env.Default("u")
	bad.RetainVersions = -1
	if _, err := Connect(context.Background(), nil, Config{User: "u", Universe: u, Host: "ws", Env: bad}); err == nil {
		t.Fatal("Connect with invalid environment succeeded")
	}
}

func TestWaitAnyReceivesRoutedOutputs(t *testing.T) {
	cl, fs, _ := newPair(t)
	fs.send(&wire.Output{Job: 31, State: wire.JobDone, Mode: wire.OutputFull, Stdout: []byte("one\n")})
	fs.send(&wire.Output{Job: 32, State: wire.JobDone, Mode: wire.OutputFull, Stdout: []byte("two\n")})
	got := map[uint64]string{}
	for i := 0; i < 2; i++ {
		rec, err := cl.WaitAny(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got[rec.ID] = string(rec.Stdout)
	}
	if got[31] != "one\n" || got[32] != "two\n" {
		t.Fatalf("WaitAny results = %v", got)
	}
}

func TestWaitAnyAfterDisconnect(t *testing.T) {
	cl, fs, _ := newPair(t)
	_ = fs.conn.Close()
	if _, err := cl.WaitAny(context.Background()); err == nil {
		t.Fatal("WaitAny succeeded after disconnect")
	}
}

// TestCycleHistogramRecords: a submit→output round trip must land exactly one
// sample in the observer's full-cycle histogram, and a duplicate delivery
// must not add a second.
func TestCycleHistogramRecords(t *testing.T) {
	cl, fs, universe := newPair(t)
	if err := universe.WriteFile("ws", "/run.job", []byte("echo hi\n")); err != nil {
		t.Fatal(err)
	}
	res := make(chan uint64, 1)
	go func() {
		job, err := cl.Submit(context.Background(), "/run.job", nil, SubmitOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		res <- job
	}()
	fs.recv() // submit
	fs.send(&wire.SubmitOK{Job: 7})
	job := <-res

	deliver := func() {
		fs.send(&wire.Output{Job: job, State: wire.JobDone, Mode: wire.OutputFull, Stdout: []byte("hi\n")})
		if _, err := cl.Wait(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		if ack, ok := fs.recv().(*wire.OutputAck); !ok || ack.Job != job {
			t.Fatalf("expected output ack, got %#v", ack)
		}
	}
	deliver()
	if n := cl.cfg.Obs.Cycle.Snapshot().Count; n != 1 {
		t.Fatalf("cycle histogram count = %d after delivery, want 1", n)
	}
	deliver() // duplicate: acked, not re-surfaced, not re-timed
	if n := cl.cfg.Obs.Cycle.Snapshot().Count; n != 1 {
		t.Fatalf("cycle histogram count = %d after duplicate, want 1", n)
	}
}

// TestTracedCycleSpanNotReparked runs traced cycles whose OUTPUT is on the
// wire right behind SUBMIT_OK, so the read loop delivers it — finishing and
// removing the cycle's root span — before Submit's caller resumes. The
// caller used to park the span again (and SetJob it while the read loop was
// finishing it); the map entry then never left. Run with -race.
func TestTracedCycleSpanNotReparked(t *testing.T) {
	o := obs.New(nil, nil)
	o.SetTracer(trace.New(trace.Config{}))
	cl, fs, universe := newPairObserved(t, o)
	if err := universe.WriteFile("ws", "/run.job", []byte("echo hi\n")); err != nil {
		t.Fatal(err)
	}
	for job := uint64(1); job <= 200; job++ {
		submitted := make(chan error, 1)
		go func() {
			got, err := cl.Submit(context.Background(), "/run.job", nil, SubmitOptions{})
			if err == nil && got != job {
				err = fmt.Errorf("submit returned job %d, want %d", got, job)
			}
			submitted <- err
		}()
		if _, ok := fs.recv().(*wire.Submit); !ok {
			t.Fatal("expected submit")
		}
		fs.send(&wire.SubmitOK{Job: job})
		fs.send(&wire.Output{Job: job, State: wire.JobDone, Mode: wire.OutputFull, Stdout: []byte("hi\n")})
		if ack, ok := fs.recv().(*wire.OutputAck); !ok || ack.Job != job {
			t.Fatalf("expected output ack for job %d, got %#v", job, ack)
		}
		if err := <-submitted; err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	cl.mu.Lock()
	held := len(cl.awaited)
	cl.mu.Unlock()
	if held != 0 {
		t.Fatalf("after every output was delivered: %d awaited-job records (root spans, cycle stamps) still parked", held)
	}
	if n := cl.cfg.Obs.Cycle.Snapshot().Count; n != 200 {
		t.Fatalf("cycle histogram count = %d, want 200", n)
	}
}

// Environment returns the active shadow environment.
func (c *Client) Environment() env.Environment { return c.cfg.Env }
