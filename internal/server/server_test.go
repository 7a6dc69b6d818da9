package server

import (
	"fmt"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"shadowedit/internal/cache"
	"shadowedit/internal/diff"
	"shadowedit/internal/netsim"
	"shadowedit/internal/obs"
	"shadowedit/internal/wire"
)

// rig is a server plus a raw protocol connection, for driving the server at
// the wire level.
type rig struct {
	srv  *Server
	conn *netsim.Conn
	host *netsim.Host
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	nw := netsim.New()
	serverHost := nw.Host("super")
	clientHost := nw.Host("ws")
	nw.Connect(clientHost, serverHost, netsim.LAN)
	lst, err := serverHost.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name == "" {
		cfg = Defaults("super")
	}
	srv := New(cfg)
	go func() {
		_ = srv.Serve(AcceptorFunc(func() (wire.Conn, error) {
			return lst.Accept()
		}))
	}()
	t.Cleanup(func() {
		_ = lst.Close()
		srv.Close()
	})
	conn, err := clientHost.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rig{srv: srv, conn: conn, host: clientHost}
}

func (r *rig) send(t *testing.T, m wire.Message) {
	t.Helper()
	if err := wire.Send(r.conn, m); err != nil {
		t.Fatalf("send %v: %v", m.Kind(), err)
	}
}

func (r *rig) recv(t *testing.T) wire.Message {
	t.Helper()
	msg, err := wire.Recv(r.conn)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return msg
}

func (r *rig) hello(t *testing.T) {
	t.Helper()
	r.send(t, &wire.Hello{Protocol: wire.ProtocolVersion, User: "u", Domain: "d", ClientHost: "ws"})
	if m, ok := r.recv(t).(*wire.HelloOK); !ok {
		t.Fatalf("hello reply = %#v", m)
	}
}

var testRef = wire.FileRef{Domain: "d", FileID: "ws:/u/f.dat"}

// sendFull uploads content as a given version and consumes the ack.
func (r *rig) sendFull(t *testing.T, ref wire.FileRef, version uint64, content []byte) {
	t.Helper()
	r.send(t, &wire.FileFull{
		File: ref, Version: version, Content: content, Sum: diff.Checksum(content),
	})
	ack, ok := r.recv(t).(*wire.FileAck)
	if !ok || ack.Version != version {
		t.Fatalf("ack = %#v", ack)
	}
}

// TestHelloWrongProtocolRejected: there is one protocol version. A HELLO
// naming any other — older, newer, or none — is refused with an ERROR, the
// session ends, and nothing of it stays behind on the server.
func TestHelloWrongProtocolRejected(t *testing.T) {
	for _, v := range []uint32{0, 1, 4, 6, 999} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			r := newRig(t, Config{})
			r.send(t, &wire.Hello{Protocol: v, User: "u", Domain: "d", ClientHost: "ws"})
			if m, ok := r.recv(t).(*wire.ErrorMsg); !ok || m.Code != wire.CodeBadRequest {
				t.Fatalf("reply = %#v, want bad-request error", m)
			}
			if _, err := wire.Recv(r.conn); err == nil {
				t.Fatal("session stayed open after protocol mismatch")
			}
			eventually(t, "refused session unregistered", func() bool { return r.srv.SessionCount() == 0 })
			r.srv.deliverMu.Lock()
			held := len(r.srv.routed) + len(r.srv.undelivered)
			r.srv.deliverMu.Unlock()
			if held != 0 || r.srv.InFlightFetches() != 0 {
				t.Fatalf("refused hello left state behind: %d hold queues, %d flights", held, r.srv.InFlightFetches())
			}
		})
	}
}

func TestDeltaWithoutBaseTriggersFullPull(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	// A delta referencing a base the cache never saw.
	d, err := diff.Compute(diff.HuntMcIlroy, []byte("old\n"), []byte("new\n"))
	if err != nil {
		t.Fatal(err)
	}
	r.send(t, &wire.FileDelta{File: testRef, BaseVersion: 1, Version: 2, Encoded: d.Encode()})
	pull, ok := r.recv(t).(*wire.Pull)
	if !ok {
		t.Fatalf("reply = %#v, want Pull", pull)
	}
	if pull.HaveVersion != 0 || pull.WantVersion != 2 {
		t.Fatalf("pull = %+v, want full of v2", pull)
	}
}

func TestDeltaAgainstWrongContentTriggersFullPull(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.sendFull(t, testRef, 1, []byte("cached content\n"))
	// Delta whose checksums reference different base bytes at version 1.
	d, err := diff.Compute(diff.HuntMcIlroy, []byte("other content\n"), []byte("new\n"))
	if err != nil {
		t.Fatal(err)
	}
	r.send(t, &wire.FileDelta{File: testRef, BaseVersion: 1, Version: 2, Encoded: d.Encode()})
	pull, ok := r.recv(t).(*wire.Pull)
	if !ok || pull.HaveVersion != 0 {
		t.Fatalf("reply = %#v, want full pull", pull)
	}
}

func TestCorruptDeltaReportsError(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.sendFull(t, testRef, 1, []byte("content\n"))
	r.send(t, &wire.FileDelta{File: testRef, BaseVersion: 1, Version: 2, Encoded: []byte("garbage")})
	if m, ok := r.recv(t).(*wire.ErrorMsg); !ok {
		t.Fatalf("reply = %#v, want error", m)
	}
	// Session survives: a status query still works.
	r.send(t, &wire.StatusReq{All: true})
	if _, ok := r.recv(t).(*wire.StatusReply); !ok {
		t.Fatal("session did not survive corrupt delta")
	}
}

func TestFullWithBadChecksumReportsError(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.send(t, &wire.FileFull{File: testRef, Version: 1, Content: []byte("x"), Sum: 12345})
	if m, ok := r.recv(t).(*wire.ErrorMsg); !ok {
		t.Fatalf("reply = %#v, want error", m)
	}
}

func TestStaleFullDoesNotRegressCache(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.sendFull(t, testRef, 3, []byte("version three\n"))
	// A late full of version 2 arrives (reordered/overtaken transfer).
	r.send(t, &wire.FileFull{
		File: testRef, Version: 2,
		Content: []byte("version two\n"), Sum: diff.Checksum([]byte("version two\n")),
	})
	ack, ok := r.recv(t).(*wire.FileAck)
	if !ok {
		t.Fatalf("reply = %#v, want ack", ack)
	}
	if ack.Version != 3 {
		t.Fatalf("ack version = %d, want 3 (cache must keep the newer)", ack.Version)
	}
}

func TestDuplicateDeltaReAcked(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	base := []byte("one\ntwo\n")
	next := []byte("one\nTWO\n")
	r.sendFull(t, testRef, 1, base)
	d, err := diff.Compute(diff.HuntMcIlroy, base, next)
	if err != nil {
		t.Fatal(err)
	}
	fd := &wire.FileDelta{File: testRef, BaseVersion: 1, Version: 2, Encoded: d.Encode()}
	r.send(t, fd)
	if ack, ok := r.recv(t).(*wire.FileAck); !ok || ack.Version != 2 {
		t.Fatalf("first delta reply = %#v", ack)
	}
	// The same delta again (duplicate answer to a duplicate pull).
	r.send(t, fd)
	ack, ok := r.recv(t).(*wire.FileAck)
	if !ok || ack.Version != 2 {
		t.Fatalf("duplicate delta reply = %#v, want idempotent ack", ack)
	}
}

func TestSubmitUnparsableScript(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.send(t, &wire.Submit{Script: []byte("explode\n")})
	m, ok := r.recv(t).(*wire.ErrorMsg)
	if !ok || m.Code != wire.CodeBadRequest {
		t.Fatalf("reply = %#v, want bad request", m)
	}
}

func TestSubmitDuplicateInputNames(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.send(t, &wire.Submit{
		Script: []byte("wc a\n"),
		Inputs: []wire.JobInput{
			{File: testRef, Version: 1, As: "a"},
			{File: wire.FileRef{Domain: "d", FileID: "other"}, Version: 1, As: "a"},
		},
	})
	if m, ok := r.recv(t).(*wire.ErrorMsg); !ok {
		t.Fatalf("reply = %#v, want error", m)
	}
}

func TestSubmitMissingReferencedInput(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.send(t, &wire.Submit{Script: []byte("wc a b\n"), Inputs: []wire.JobInput{
		{File: testRef, Version: 1, As: "a"},
	}})
	if m, ok := r.recv(t).(*wire.ErrorMsg); !ok {
		t.Fatalf("reply = %#v, want error", m)
	}
}

func TestStatusUnknownJob(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.send(t, &wire.StatusReq{Job: 42})
	m, ok := r.recv(t).(*wire.ErrorMsg)
	if !ok || m.Code != wire.CodeUnknownJob {
		t.Fatalf("reply = %#v, want unknown job", m)
	}
}

func TestStatusOtherSessionsJobHidden(t *testing.T) {
	// Session A submits; session B must not see or query A's job.
	nw := netsim.New()
	serverHost := nw.Host("super")
	a := nw.Host("a")
	b := nw.Host("b")
	nw.Connect(a, serverHost, netsim.LAN)
	nw.Connect(b, serverHost, netsim.LAN)
	lst, err := serverHost.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Defaults("super"))
	go func() {
		_ = srv.Serve(AcceptorFunc(func() (wire.Conn, error) { return lst.Accept() }))
	}()
	defer func() {
		_ = lst.Close()
		srv.Close()
	}()

	dial := func(h *netsim.Host) *netsim.Conn {
		c, err := h.Dial("super", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.Send(c, &wire.Hello{Protocol: wire.ProtocolVersion, User: "u", ClientHost: h.Name()}); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.Recv(c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	connA := dial(a)
	defer connA.Close()
	connB := dial(b)
	defer connB.Close()

	if err := wire.Send(connA, &wire.Submit{Script: []byte("echo hi\n")}); err != nil {
		t.Fatal(err)
	}
	var jobID uint64
	for {
		m, err := wire.Recv(connA)
		if err != nil {
			t.Fatal(err)
		}
		if ok, is := m.(*wire.SubmitOK); is {
			jobID = ok.Job
			break
		}
	}
	if err := wire.Send(connB, &wire.StatusReq{Job: jobID}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Recv(connB); err != nil {
		t.Fatal(err)
	} else if em, ok := m.(*wire.ErrorMsg); !ok || em.Code != wire.CodeUnknownJob {
		t.Fatalf("cross-session status = %#v, want unknown job", m)
	}
	if err := wire.Send(connB, &wire.StatusReq{All: true}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Recv(connB); err != nil {
		t.Fatal(err)
	} else if sr, ok := m.(*wire.StatusReply); !ok || len(sr.Jobs) != 0 {
		t.Fatalf("cross-session StatusAll = %#v, want empty", m)
	}
}

func TestOutputFullReqUnknownJob(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.send(t, &wire.OutputFullReq{Job: 7})
	if m, ok := r.recv(t).(*wire.ErrorMsg); !ok {
		t.Fatalf("reply = %#v, want error", m)
	}
}

func TestByeEndsSession(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.send(t, &wire.Bye{})
	if _, err := wire.Recv(r.conn); err == nil {
		t.Fatal("session stayed open after bye")
	}
}

func TestUnexpectedMessageReportsError(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	// A HelloOK from a client is nonsense.
	r.send(t, &wire.HelloOK{Session: 1})
	if m, ok := r.recv(t).(*wire.ErrorMsg); !ok {
		t.Fatalf("reply = %#v, want error", m)
	}
}

func TestRawGarbageDoesNotCrashServer(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	if err := r.conn.Send([]byte{0xFF, 0x00, 0xEE}); err != nil {
		t.Fatal(err)
	}
	// Undecodable frames end the session (Recv fails server-side), but
	// the server itself survives and accepts new connections.
	conn2, err := r.host.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.Send(conn2, &wire.Hello{Protocol: wire.ProtocolVersion, User: "u2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Recv(conn2); err != nil {
		t.Fatalf("server dead after garbage frame: %v", err)
	}
}

func TestEagerPullOnNotify(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.send(t, &wire.Notify{File: testRef, Version: 1, Size: 10, Sum: 1})
	pull, ok := r.recv(t).(*wire.Pull)
	if !ok {
		t.Fatalf("reply = %#v, want pull", pull)
	}
	if pull.File != testRef || pull.WantVersion != 1 || pull.HaveVersion != 0 {
		t.Fatalf("pull = %+v", pull)
	}
	issued, deferred := r.srv.FlowStats()
	if issued != 1 || deferred != 0 {
		t.Fatalf("flow stats = (%d, %d)", issued, deferred)
	}
}

func TestLazyPolicyDefersUntilSubmit(t *testing.T) {
	cfg := Defaults("super")
	cfg.Pull = PullLazy
	r := newRig(t, cfg)
	r.hello(t)
	r.send(t, &wire.Notify{File: testRef, Version: 1, Size: 10, Sum: 1})
	// No pull yet: a status round trip confirms the notify was processed
	// and nothing else was sent before the reply.
	r.send(t, &wire.StatusReq{All: true})
	if m := r.recv(t); m.Kind() != wire.KindStatusReply {
		t.Fatalf("got %v before status reply; lazy policy pulled early", m.Kind())
	}
	if issued, deferred := r.srv.FlowStats(); issued != 0 || deferred != 1 {
		t.Fatalf("flow stats = (%d, %d), want (0, 1)", issued, deferred)
	}
	// Submit needing the file forces the pull.
	r.send(t, &wire.Submit{Script: []byte("wc f\n"), Inputs: []wire.JobInput{
		{File: testRef, Version: 1, As: "f"},
	}})
	sawPull := false
	for i := 0; i < 2; i++ {
		switch m := r.recv(t).(type) {
		case *wire.Pull:
			sawPull = true
		case *wire.SubmitOK:
		default:
			t.Fatalf("unexpected %v", m.Kind())
		}
	}
	if !sawPull {
		t.Fatal("submit did not trigger the deferred pull")
	}
}

func TestNotifyForCachedVersionNoPull(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r.sendFull(t, testRef, 2, []byte("content\n"))
	// Notify about a version the cache already has (client reconnected).
	r.send(t, &wire.Notify{File: testRef, Version: 2, Size: 8, Sum: 1})
	r.send(t, &wire.StatusReq{All: true})
	if m := r.recv(t); m.Kind() != wire.KindStatusReply {
		t.Fatalf("server pulled a version it already has: %v", m.Kind())
	}
}

func TestJobPipelineAtWireLevel(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	content := []byte("delta\nalpha\n")
	r.sendFull(t, testRef, 1, content)
	r.send(t, &wire.Submit{Script: []byte("sort f.dat\n"), Inputs: []wire.JobInput{
		{File: testRef, Version: 1, As: "f.dat"},
	}})
	var output *wire.Output
	deadline := time.After(5 * time.Second)
	for output == nil {
		select {
		case <-deadline:
			t.Fatal("no output within deadline")
		default:
		}
		switch m := r.recv(t).(type) {
		case *wire.SubmitOK:
		case *wire.Output:
			output = m
		default:
			t.Fatalf("unexpected %v", m.Kind())
		}
	}
	if string(output.Stdout) != "alpha\ndelta\n" {
		t.Fatalf("stdout = %q", output.Stdout)
	}
	if output.State != wire.JobDone || output.ExitCode != 0 {
		t.Fatalf("output = %+v", output)
	}
}

// TestSubmitRetryRedrivesStrandedJob covers the mid-handler death window: a
// submit handler can create the job and then die before gathering inputs
// (its SUBMIT_OK send fails when the connection drops), leaving a job in
// the initial queued state with no waits registered. The client's retried
// submit hits the duplicate-tag path, which must re-drive input gathering —
// only re-acking the job id would strand it forever.
func TestSubmitRetryRedrivesStrandedJob(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	script := []byte("sort f.dat\n")
	scriptSum := diff.Checksum(script)
	cmds, _, err := r.srv.parsedScript(scriptSum, script)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []wire.JobInput{{File: testRef, Version: 1, As: "f.dat"}}
	owner := identity{user: "u", host: "ws"}
	live := r.srv.sessions.snapshot()
	if len(live) != 1 {
		t.Fatalf("live sessions = %d, want 1", len(live))
	}
	// Manufacture the stranded job exactly as handleSubmit leaves it when
	// the SUBMIT_OK send fails: created, tagged, never gathered.
	j := &job{
		sess:      live[0],
		owner:     owner,
		script:    script,
		cmds:      cmds,
		scriptSum: scriptSum,
		inputs:    inputs,
		state:     wire.JobQueued,
		tag:       77,
	}
	j.initInputs(r.srv.dir)
	j.id = r.srv.nextJob.Add(1)
	r.srv.jobs.add(j)
	r.srv.tagMu.Lock()
	r.srv.submitTags[owner] = map[uint64]uint64{77: j.id}
	r.srv.tagMu.Unlock()

	// The retried submit must ack the existing job and then pull the
	// missing input.
	r.send(t, &wire.Submit{Script: script, Inputs: inputs, ClientTag: 77})
	sawPull := false
	for i := 0; i < 2; i++ {
		switch m := r.recv(t).(type) {
		case *wire.SubmitOK:
			if m.Job != j.id {
				t.Fatalf("re-ack named job %d, want %d", m.Job, j.id)
			}
		case *wire.Pull:
			sawPull = true
		default:
			t.Fatalf("unexpected %v", m.Kind())
		}
	}
	if !sawPull {
		t.Fatal("retried submit did not re-drive the input pull")
	}
	content := []byte("delta\nalpha\n")
	r.send(t, &wire.FileFull{
		File: testRef, Version: 1, Content: content, Sum: diff.Checksum(content),
	})
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("stranded job never completed")
		default:
		}
		switch m := r.recv(t).(type) {
		case *wire.FileAck:
		case *wire.Output:
			if m.Job != j.id || m.State != wire.JobDone || string(m.Stdout) != "alpha\ndelta\n" {
				t.Fatalf("output = %+v", m)
			}
			return
		default:
			t.Fatalf("unexpected %v", m.Kind())
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := New(Defaults("s"))
	srv.Close()
	srv.Close()
}

func TestPullPolicyString(t *testing.T) {
	tests := []struct {
		policy PullPolicy
		want   string
	}{
		{PullEager, "eager"},
		{PullLazy, "lazy"},
		{PullLoadAware, "load-aware"},
		{PullPolicy(9), "pull-policy(9)"},
	}
	for _, tt := range tests {
		if got := tt.policy.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.policy, got, tt.want)
		}
	}
}

func TestCacheCapacityConfigHonored(t *testing.T) {
	cfg := Defaults("super")
	cfg.CacheCapacity = 10
	cfg.CachePolicy = cache.LargestFirst
	r := newRig(t, cfg)
	r.hello(t)
	// A file bigger than the whole cache is still acked (best effort)
	// but not cached.
	big := []byte("this content is bigger than ten bytes\n")
	r.sendFull(t, testRef, 1, big)
	if n := r.srv.Cache().Len(); n != 0 {
		t.Fatalf("cache holds %d entries, want 0", n)
	}
}

// logTo returns an observer whose structured log, at every level, goes to
// write, one line per call.
func logTo(write func(line []byte)) *obs.Observer {
	h := slog.NewTextHandler(writerFunc(func(p []byte) (int, error) { write(p); return len(p), nil }),
		&slog.HandlerOptions{Level: slog.LevelDebug})
	return obs.New(slog.New(h), nil)
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestLogReceivesEvents: the server's operational log is the observer's
// structured one — a session's hello at Info, each pull at Debug.
func TestLogReceivesEvents(t *testing.T) {
	var mu sync.Mutex
	var lines strings.Builder
	cfg := Defaults("super")
	cfg.Obs = logTo(func(line []byte) {
		mu.Lock()
		lines.Write(line)
		mu.Unlock()
	})
	r := newRig(t, cfg)
	r.hello(t)
	r.send(t, &wire.Notify{File: testRef, Version: 1, Size: 4, Sum: 1})
	if _, ok := r.recv(t).(*wire.Pull); !ok {
		t.Fatal("no pull")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []string{`level=INFO msg="session hello" session=1 user=u host=ws`, `level=DEBUG msg="pull issued"`} {
		if !strings.Contains(lines.String(), want) {
			t.Fatalf("log missing %q:\n%s", want, lines.String())
		}
	}
}

func TestRandomProtocolSequencesNeverCrash(t *testing.T) {
	// Random (but decodable) message sequences with arbitrary field
	// values: the server must answer or ignore every one, never panic,
	// and keep serving. The sequences mix valid flows with nonsense
	// (acks for unknown jobs, deltas with wild versions, empty scripts).
	rng := rand.New(rand.NewSource(31337))
	r := newRig(t, Config{})
	r.hello(t)

	refs := []wire.FileRef{
		{Domain: "d", FileID: "ws:/a"},
		{Domain: "d", FileID: "ws:/b"},
		{Domain: "", FileID: ""},
	}
	randRef := func() wire.FileRef { return refs[rng.Intn(len(refs))] }
	randBytes := func(n int) []byte {
		b := make([]byte, rng.Intn(n))
		rng.Read(b)
		return b
	}

	drain := func() {
		// Consume whatever the server sent back so its writes never
		// block; bound the effort.
		for i := 0; i < 4; i++ {
			r.send(t, &wire.StatusReq{All: true})
			for {
				m := r.recv(t)
				if m.Kind() == wire.KindStatusReply {
					break
				}
			}
			return
		}
	}

	for op := 0; op < 300; op++ {
		switch rng.Intn(7) {
		case 0:
			r.send(t, &wire.Notify{File: randRef(), Version: uint64(rng.Intn(5)), Size: int64(rng.Intn(1000)), Sum: rng.Uint32()})
		case 1:
			r.send(t, &wire.FileDelta{File: randRef(), BaseVersion: uint64(rng.Intn(3)), Version: uint64(rng.Intn(5)), Encoded: randBytes(64)})
		case 2:
			content := randBytes(128)
			r.send(t, &wire.FileFull{File: randRef(), Version: uint64(rng.Intn(5)), Content: content, Sum: diff.Checksum(content)})
		case 3:
			r.send(t, &wire.Submit{Script: randBytes(32)})
		case 4:
			r.send(t, &wire.OutputAck{Job: uint64(rng.Intn(10))})
		case 5:
			r.send(t, &wire.OutputFullReq{Job: uint64(rng.Intn(10))})
		case 6:
			r.send(t, &wire.StatusReq{Job: uint64(rng.Intn(10))})
		}
		if op%25 == 24 {
			drain()
		}
	}
	drain()
	// The server is still healthy: a fresh connection completes a real
	// job end to end.
	conn2, err := r.host.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.Send(conn2, &wire.Hello{Protocol: wire.ProtocolVersion, User: "fresh", ClientHost: "ws"}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Recv(conn2); err != nil {
		t.Fatal(err)
	}
	if err := wire.Send(conn2, &wire.Submit{Script: []byte("echo alive\n")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("no output from healthy-check job")
		default:
		}
		m, err := wire.Recv(conn2)
		if err != nil {
			t.Fatal(err)
		}
		if out, ok := m.(*wire.Output); ok {
			if string(out.Stdout) != "alive\n" {
				t.Fatalf("healthy-check output = %q", out.Stdout)
			}
			return
		}
	}
}
