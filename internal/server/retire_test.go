package server

import (
	"bytes"
	"testing"

	"shadowedit/internal/diff"
	"shadowedit/internal/jobs"
	"shadowedit/internal/netsim"
	"shadowedit/internal/wire"
)

// peerConn is one more raw connection to the rig's server, identified by its
// own HELLO.
type peerConn struct {
	t    *testing.T
	conn *netsim.Conn
}

func (r *rig) dial(t *testing.T, user, host string) *peerConn {
	t.Helper()
	conn, err := r.host.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	p := &peerConn{t: t, conn: conn}
	p.send(&wire.Hello{Protocol: wire.ProtocolVersion, User: user, Domain: "d", ClientHost: host})
	if m, ok := p.recv().(*wire.HelloOK); !ok {
		t.Fatalf("hello reply = %#v", m)
	}
	return p
}

func (p *peerConn) send(m wire.Message) {
	p.t.Helper()
	if err := wire.Send(p.conn, m); err != nil {
		p.t.Fatalf("send %v: %v", m.Kind(), err)
	}
}

func (p *peerConn) recv() wire.Message {
	p.t.Helper()
	m, err := wire.Recv(p.conn)
	if err != nil {
		p.t.Fatalf("recv: %v", err)
	}
	return m
}

// run submits an input-free job and returns its id and its output, which is
// left unacknowledged.
func (p *peerConn) run(sub *wire.Submit) (uint64, *wire.Output) {
	p.t.Helper()
	p.send(sub)
	ok, isOK := p.recv().(*wire.SubmitOK)
	if !isOK {
		p.t.Fatalf("submit reply = %#v", ok)
	}
	out, isOut := p.recv().(*wire.Output)
	if !isOut || out.Job != ok.Job {
		p.t.Fatalf("after SUBMIT_OK for job %d: %#v", ok.Job, out)
	}
	return ok.Job, out
}

// status asks for one job (all false) or all, returning the reply or the
// error that came instead.
func (p *peerConn) status(job uint64, all bool) ([]wire.JobStatus, *wire.ErrorMsg) {
	p.t.Helper()
	p.send(&wire.StatusReq{Job: job, All: all})
	switch m := p.recv().(type) {
	case *wire.StatusReply:
		return m.Jobs, nil
	case *wire.ErrorMsg:
		return nil, m
	default:
		p.t.Fatalf("status reply = %#v", m)
		return nil, nil
	}
}

// retired waits for the job to leave the table (the ack is handled on the
// session's goroutine; nothing is sent back).
func (r *rig) retired(t *testing.T, job uint64) {
	t.Helper()
	eventually(t, "acknowledged job left the table", func() bool {
		_, live := r.srv.lookupJob(job)
		return !live
	})
}

func (r *rig) tags() int {
	r.srv.tagMu.Lock()
	defer r.srv.tagMu.Unlock()
	n := 0
	for _, tags := range r.srv.submitTags {
		n += len(tags)
	}
	return n
}

// TestRetirementSemantics pins what an acknowledged job leaves behind and
// what each frame answers afterwards.
func TestRetirementSemantics(t *testing.T) {
	echo := func(tag uint64) *wire.Submit {
		return &wire.Submit{Script: []byte("echo retired jobs answer from the ring\n"), ClientTag: tag}
	}

	t.Run("status answers from the ring", func(t *testing.T) {
		r := newRig(t, Config{})
		u := r.dial(t, "u", "ws")
		job, out := u.run(echo(0))
		before, _ := u.status(job, false)
		u.send(&wire.OutputAck{Job: job})
		r.retired(t, job)
		after, errMsg := u.status(job, false)
		if errMsg != nil || len(before) != 1 || len(after) != 1 || after[0] != before[0] {
			t.Fatalf("status before ack %+v, after %+v (%v)", before, after, errMsg)
		}
		if after[0].State != wire.JobDone || after[0].Detail != terminalDetail(0, len(out.Stdout)) {
			t.Fatalf("retired status = %+v", after[0])
		}
		// All: the owner's ring entries plus its live jobs, ascending, and
		// nobody else's.
		live, _ := u.run(echo(0))
		other := r.dial(t, "v", "ws")
		theirs, _ := other.run(echo(0))
		other.send(&wire.OutputAck{Job: theirs})
		r.retired(t, theirs)
		all, _ := u.status(0, true)
		if len(all) != 2 || all[0].Job != job || all[1].Job != live {
			t.Fatalf("StatusAll = %+v, want jobs %d (retired) and %d (live)", all, job, live)
		}
		if _, errMsg := u.status(theirs, false); errMsg == nil || errMsg.Code != wire.CodeUnknownJob {
			t.Fatalf("another user's retired job answered %v", errMsg)
		}
		if st := r.srv.JobStats(); st.Live != 1 || st.Unacked != 1 || st.Retired != 2 || st.UnackedBytes != int64(len(out.Stdout)) {
			t.Fatalf("JobStats = %+v", st)
		}
		if c := r.srv.JobCounts(); c[wire.JobDone] != 3 {
			t.Fatalf("JobCounts = %v, want three done (two of them retired)", c)
		}
	})

	t.Run("tagged retry after retirement runs nothing", func(t *testing.T) {
		r := newRig(t, Config{})
		u := r.dial(t, "u", "ws")
		job, _ := u.run(echo(41))
		u.send(&wire.OutputAck{Job: job})
		r.retired(t, job)
		minted := r.srv.nextJob.Load()
		u.send(echo(41))
		if ok, isOK := u.recv().(*wire.SubmitOK); !isOK || ok.Job != job {
			t.Fatalf("retried submit answered %#v, want SUBMIT_OK for job %d", ok, job)
		}
		// In-order delivery: had the retry run anything, its output would be
		// queued ahead of this reply.
		if all, _ := u.status(0, true); len(all) != 1 || r.srv.nextJob.Load() != minted {
			t.Fatalf("retry minted a job: %+v, counter %d -> %d", all, minted, r.srv.nextJob.Load())
		}
	})

	t.Run("output full request after retirement", func(t *testing.T) {
		r := newRig(t, Config{})
		u := r.dial(t, "u", "ws")
		job, _ := u.run(echo(0))
		u.send(&wire.OutputAck{Job: job})
		u.send(&wire.OutputAck{Job: job}) // a late duplicate is ignored
		r.retired(t, job)
		u.send(&wire.OutputFullReq{Job: job})
		if m, ok := u.recv().(*wire.ErrorMsg); !ok || m.Code != wire.CodeUnknownJob {
			t.Fatalf("OUTPUT_FULL_REQ for a retired job answered %#v", m)
		}
		if st := r.srv.JobStats(); st.Retired != 1 {
			t.Fatalf("duplicate ack retired twice: %+v", st)
		}
	})

	t.Run("unacknowledged output survives a disconnect whole", func(t *testing.T) {
		r := newRig(t, Config{})
		u := r.dial(t, "u", "ws")
		job, out := u.run(echo(0))
		attached := r.srv.SessionCount()
		_ = u.conn.Close()
		eventually(t, "dead session unregistered", func() bool { return r.srv.SessionCount() < attached })
		if _, live := r.srv.lookupJob(job); !live {
			t.Fatal("job retired without an acknowledgement")
		}
		// A stranger's ack changes nothing.
		x := r.dial(t, "x", "elsewhere")
		x.send(&wire.OutputAck{Job: job})
		if _, errMsg := x.status(job, false); errMsg == nil { // also orders the ack before the check
			t.Fatal("a stranger can see the job")
		}
		if _, live := r.srv.lookupJob(job); !live {
			t.Fatal("a stranger's ack retired the job")
		}
		again := r.dial(t, "u", "ws")
		re, ok := again.recv().(*wire.Output)
		if !ok || re.Job != job || string(re.Stdout) != string(out.Stdout) || re.ExitCode != out.ExitCode {
			t.Fatalf("re-attach delivered %#v, want job %d's output whole", re, job)
		}
		again.send(&wire.OutputAck{Job: job})
		r.retired(t, job)
		if st := r.srv.JobStats(); st.Live != 0 || st.UnackedBytes != 0 {
			t.Fatalf("JobStats = %+v", st)
		}
	})

	t.Run("routed output is retired by the routed host", func(t *testing.T) {
		r := newRig(t, Config{})
		u := r.dial(t, "u", "ws")
		sub := echo(0)
		sub.RouteHost = "viz"
		u.send(sub)
		ok, isOK := u.recv().(*wire.SubmitOK)
		if !isOK {
			t.Fatalf("submit reply = %#v", ok)
		}
		eventually(t, "output held for the routed host", func() bool {
			r.srv.deliverMu.Lock()
			defer r.srv.deliverMu.Unlock()
			return len(r.srv.routed["viz"]) == 1
		})
		viz := r.dial(t, "someone", "viz")
		if out, isOut := viz.recv().(*wire.Output); !isOut || out.Job != ok.Job {
			t.Fatalf("routed host received %#v", out)
		}
		viz.send(&wire.OutputAck{Job: ok.Job})
		r.retired(t, ok.Job)
		r.srv.deliverMu.Lock()
		held := len(r.srv.routed) + len(r.srv.undelivered)
		r.srv.deliverMu.Unlock()
		if held != 0 {
			t.Fatalf("%d hold queues left", held)
		}
		// The submitter, not the routed host, owns the summary.
		if st, errMsg := u.status(ok.Job, false); errMsg != nil || st[0].State != wire.JobDone {
			t.Fatalf("owner's status of the routed job = %+v, %v", st, errMsg)
		}
	})

	t.Run("a summary falling off the ring takes its tag", func(t *testing.T) {
		r := newRig(t, Config{})
		u := r.dial(t, "u", "ws")
		job, _ := u.run(echo(9))
		u.send(&wire.OutputAck{Job: job})
		r.retired(t, job)
		if r.tags() != 1 {
			t.Fatalf("%d tags after one tagged job", r.tags())
		}
		for i := 0; i < summaryRingSize-1; i++ {
			r.srv.retire(jobSummary{id: 1_000_000 + uint64(i), owner: identity{"filler", "ws"}, state: wire.JobDone})
		}
		if st, _ := u.status(job, false); len(st) != 1 || r.tags() != 1 {
			t.Fatalf("job fell off a ring that was not full: %+v, %d tags", st, r.tags())
		}
		r.srv.retire(jobSummary{id: 2_000_000, owner: identity{"filler", "ws"}, state: wire.JobFailed})
		if _, errMsg := u.status(job, false); errMsg == nil || errMsg.Code != wire.CodeUnknownJob {
			t.Fatalf("status of a job past the ring = %v", errMsg)
		}
		r.srv.tagMu.Lock()
		tags, ring := len(r.srv.submitTags), len(r.srv.retired.ring)
		r.srv.tagMu.Unlock()
		if tags != 0 || ring != summaryRingSize {
			t.Fatalf("%d tag maps, %d summaries; want none and a full ring", tags, ring)
		}
		if c := r.srv.JobCounts(); c[wire.JobFailed] != 1 || c[wire.JobDone] != summaryRingSize {
			t.Fatalf("JobCounts = %v", c)
		}
		// The tag is forgotten, so the same tag is now a new submission.
		if again, _ := u.run(echo(9)); again == job {
			t.Fatal("forgotten tag still resolved to the old job")
		}
	})
}

// TestRecycledBufferIsNotTheCache pins who owns the bytes a version arrives
// in: the jobs fed from them, until they have run — not the cache, which
// keeps chunks. Every test here runs with released buffers overwritten
// (poison_test.go), so after the job that ran on version 2 has finished and
// its buffer gone back to the pool, the cache must still assemble version 2,
// and a third version must still apply to it as a delta.
func TestRecycledBufferIsNotTheCache(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	v1 := textContent(3, 24<<10)
	v2, v3 := edited(v1, "two"), edited(edited(v1, "two"), "three")
	r.sendFull(t, testRef, 1, v1)
	id := r.srv.dir.Intern(testRef)
	step := func(version uint64, base, target []byte) {
		t.Helper()
		r.send(t, &wire.Submit{Script: []byte("checksum in\n"), Inputs: []wire.JobInput{{File: testRef, Version: version, As: "in"}}})
		d, err := diff.Compute(diff.HuntMcIlroy, base, target)
		if err != nil {
			t.Fatal(err)
		}
		var job uint64
		for job == 0 {
			switch m := r.recv(t).(type) {
			case *wire.SubmitOK, *wire.FileAck:
			case *wire.Pull:
				if m.HaveVersion != version-1 {
					t.Fatalf("pull for v%d names base v%d: the delta path is not being exercised", version, m.HaveVersion)
				}
				r.send(t, &wire.FileDelta{File: testRef, BaseVersion: version - 1, Version: version, Encoded: d.Encode()})
			case *wire.Output:
				want := jobs.Execute(jobs.Request{Script: []byte("checksum in\n"), Inputs: map[string][]byte{"in": target}})
				if string(m.Stdout) != string(want.Stdout) {
					t.Fatalf("job on v%d printed %q, want %q", version, m.Stdout, want.Stdout)
				}
				job = m.Job
			default:
				t.Fatalf("unexpected %#v", m)
			}
		}
		r.send(t, &wire.OutputAck{Job: job})
		r.retired(t, job) // the run is over: its input buffer has been released, and poisoned
		if e, ok := r.srv.cache.Get(id); !ok || e.Version != version || !bytes.Equal(e.Content, target) {
			t.Fatalf("cache no longer assembles v%d after the job's buffer was recycled", version)
		}
	}
	step(2, v1, v2)
	step(3, v2, v3)
	if m := r.srv.Metrics(); m.FullFallbacks != 0 || m.FullSends != 1 {
		t.Fatalf("%d full transfers, %d fallbacks; want the priming one only", m.FullSends, m.FullFallbacks)
	}
}
