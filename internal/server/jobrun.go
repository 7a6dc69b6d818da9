package server

import (
	"fmt"
	"log/slog"

	"shadowedit/internal/core"
	"shadowedit/internal/jobs"
	"shadowedit/internal/naming"
	"shadowedit/internal/wire"
)

// initInputs sets up the per-input gathering state, interning each input's
// file once.
func (j *job) initInputs(dir *naming.Directory) {
	if len(j.inputs) <= len(j.insArr) {
		j.ins = j.insArr[:len(j.inputs)]
	} else {
		j.ins = make([]jobInput, len(j.inputs))
	}
	for i, in := range j.inputs {
		j.ins[i].id = dir.Intern(in.File)
	}
}

// feedFromCache feeds what waits on id from the cached copy, if it is
// version want or newer: the re-check for waits registered just as the
// content arrived, and for fetches whose session died after the content
// landed. It reports whether the cache had such a version. Nothing is
// assembled unless a job is waiting; one that starts waiting after the look
// re-checks through its own pull.
func (s *Server) feedFromCache(id naming.ShadowID, want uint64) bool {
	have, ok := s.cache.Version(id)
	if !ok || have < want {
		return false
	}
	var content *fileBuf
	sh, r := s.files.lock(id)
	waited := len(r.jobs) > 0
	sh.unlock(id, r)
	if waited {
		e, ok := s.cache.Peek(id)
		if !ok || e.Version < want {
			return false // evicted between the two looks
		}
		have, content = e.Version, s.bufs.owned(e.Content)
	}
	_ = s.arrived(nil, wire.FileRef{}, id, have, content, wire.TraceContext{}, nil)
	return true
}

// maybeSchedule queues the job for execution once every input is in hand.
func (s *Server) maybeSchedule(j *job) {
	j.mu.Lock()
	if j.state != wire.JobFetching && j.state != wire.JobQueued {
		j.mu.Unlock()
		return
	}
	// Every input in hand — one the submit handler has not looked at yet
	// counts as missing, so an arrival that completes the first input cannot
	// start the job before the second is gathered.
	for i := range j.ins {
		if j.ins[i].buf == nil {
			j.mu.Unlock()
			return
		}
	}
	j.state = wire.JobQueued
	j.detail = "waiting for a processor"
	if s.cfg.Obs != nil && !j.queuedStamped {
		j.queuedAt = s.cfg.Obs.Now()
		j.queuedStamped = true
	}
	if j.waitSpan == nil {
		j.waitSpan = s.cfg.Obs.StartSpan(j.tc, "server.job-wait").SetJob(j.id)
	}
	j.mu.Unlock()

	if s.cfg.Obs.LogEnabled(slog.LevelDebug) {
		s.cfg.Obs.Log(slog.LevelDebug, "job runnable",
			slog.Uint64("job", j.id), slog.String("user", j.owner.user))
	}
	if err := s.pool.Submit(func() { s.runJob(j) }); err != nil {
		j.setState(wire.JobFailed, "server shutting down")
	}
}

// runJob executes a ready job on the simulated supercomputer and delivers
// its output.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state != wire.JobQueued {
		j.mu.Unlock()
		return
	}
	j.state = wire.JobRunning
	j.detail = "executing"
	// Once running, nothing writes the inputs (none is waiting), so the
	// executor reads the borrowed buffers directly — no defensive copy on
	// the per-job hot path.
	inputs := make(map[string][]byte, len(j.ins))
	for i := range j.ins {
		inputs[j.inputs[i].As] = j.ins[i].buf.b
	}
	script := j.script
	cmds := j.cmds
	waitSpan := j.waitSpan
	j.waitSpan = nil
	j.mu.Unlock()
	waitSpan.Finish()
	runSpan := s.cfg.Obs.StartSpan(j.tc, "server.job-run").SetJob(j.id)

	res := jobs.Execute(jobs.Request{Script: script, Commands: cmds, Inputs: inputs})
	s.cfg.Clock.Process(res.CPUTime)
	if runSpan != nil {
		runSpan.Annotate(fmt.Sprintf("exit %d", res.ExitCode)).Finish()
	}

	j.mu.Lock()
	j.result = res
	j.state = wire.JobDone
	// Nothing reads the inputs after the run: the buffers go back to the
	// pool for the next arrival, and the job stops pinning the session it
	// was submitted on (which may be long dead by the time a held output is
	// collected).
	j.releaseInputs()
	sess := j.sess
	j.sess = nil
	// detail is rendered lazily by status(): a STATUS_REQ is rare, while
	// formatting two Sprintfs per finished job is pure hot-path cost.
	j.detail = ""
	queuedAt, stamped := j.queuedAt, j.queuedStamped
	j.mu.Unlock()
	if stamped {
		s.cfg.Obs.ObserveJobLifetime(queuedAt)
	}
	if s.cfg.Obs.LogEnabled(slog.LevelInfo) {
		s.cfg.Obs.Log(slog.LevelInfo, "job done",
			slog.Uint64("job", j.id), slog.String("user", j.owner.user),
			slog.Int("exit", int(res.ExitCode)), slog.Int("stdout_bytes", len(res.Stdout)),
			slog.Duration("cpu", res.CPUTime))
	}
	if res.ExitCode != 0 {
		// A failing job dumps the submitter's flight recorder: the events
		// leading up to the failure are exactly what a postmortem wants,
		// and the session stays alive (no dumpOnce).
		if sess != nil && sess.rec != nil {
			sess.record("job", "failed", j.tc, fmt.Sprintf("job %d exit %d", j.id, res.ExitCode))
			s.recordFlightDump(sess, fmt.Sprintf("job %d failed (exit %d)", j.id, res.ExitCode))
		}
	}

	s.deliverOutput(j)

	// A finished job frees capacity: the load-aware policy may now pull
	// deferred updates.
	if s.cfg.Pull == PullLoadAware {
		for _, ss := range s.sessions.snapshot() {
			ss.drainDeferred()
		}
	}
}

// deliverOutput pushes a finished job's results to the right client. "When
// remote execution of a job completes, the shadow server contacts the client
// to transfer the output" (§6.2); with RouteHost set, delivery goes to a
// session from that host instead (§8.3 output routing). Output for a client
// that is not connected — routed hosts without a session, or submitters that
// disconnected mid-job — is held and flushed when a matching session says
// hello.
func (s *Server) deliverOutput(j *job) {
	if j.routeHost != "" {
		s.deliverOrHold(j,
			func(ss *session) bool { return ss.clientHost == j.routeHost },
			func() { s.routed[j.routeHost] = append(s.routed[j.routeHost], j.id) },
			fmt.Sprintf("done; output held for host %q", j.routeHost))
		return
	}
	s.deliverOrHold(j,
		func(ss *session) bool { return ss.identity() == j.owner },
		func() { s.undelivered[j.owner] = append(s.undelivered[j.owner], j.id) },
		"done; output held until the client reconnects")
}

// deliverOrHold sends a job's output to a live session matching the
// predicate, or records it in a hold queue. The lookup and the queueing
// happen under deliverMu — the same mutex the hello handler holds while it
// registers a session's identity and drains the queue — so an output can
// never fall between "no session yet" and "queue already drained". Dead
// sessions discovered mid-send are dropped and the lookup retried, so a
// racing disconnect degrades to queueing, never to loss.
func (s *Server) deliverOrHold(j *job, match func(*session) bool, hold func(), holdMsg string) {
	for {
		s.deliverMu.Lock()
		var target *session
		for _, sess := range s.sessions.snapshot() {
			if !sess.servesClient() || !match(sess) {
				continue
			}
			if target == nil || sess.id > target.id {
				target = sess
			}
		}
		if target == nil {
			hold()
			s.deliverMu.Unlock()
			j.setState(wire.JobDone, holdMsg)
			return
		}
		s.deliverMu.Unlock()
		if s.sendOutput(target, j, false) == nil {
			return
		}
		// The chosen session died mid-send; forget it and look again.
		s.dropSession(target)
	}
}

// deliverRoutedToLocked flushes outputs held for the host a new session
// arrived from. Caller must hold deliverMu.
func (s *Server) deliverRoutedToLocked(ss *session) []uint64 {
	if ss.clientHost == "" {
		return nil
	}
	ids := s.routed[ss.clientHost]
	delete(s.routed, ss.clientHost)
	return ids
}

// deliverUndeliveredToLocked takes outputs that completed while their owner
// was disconnected. Caller must hold deliverMu.
func (s *Server) deliverUndeliveredToLocked(ss *session) []uint64 {
	owner := ss.identity()
	ids := s.undelivered[owner]
	delete(s.undelivered, owner)
	return ids
}

// repullWaitingInputs re-issues pulls for inputs of the owner's jobs that
// are still waiting for file content — the previous session may have died
// with pulls outstanding, which would otherwise strand the jobs in the
// fetching state forever.
func (s *Server) repullWaitingInputs(ss *session) {
	for _, j := range s.jobsOfOwner(ss.identity()) {
		j.mu.Lock()
		var pending []wire.JobInput
		for i, in := range j.inputs {
			if j.ins[i].waiting {
				pending = append(pending, wire.JobInput{File: in.File, Version: j.ins[i].want})
			}
		}
		j.mu.Unlock()
		for _, in := range pending {
			// The content may have arrived just as the old session
			// died; pullFile then feeds it straight from the cache
			// rather than asking the client again.
			if ss.pullFile(in.File, in.Version, j.tc) != nil {
				return
			}
		}
	}
}

// repullPending re-homes fetches that a dying session (a client's, or a link
// to another member) owned: any job still waiting for one of the released
// files gets the pull re-issued through its own (surviving) session, so
// pulls that coalesced behind the dead session do not strand live jobs.
func (s *Server) repullPending(deadID uint64, pending []pendingFetch) {
	for _, p := range pending {
		id := s.dir.Intern(p.ref)
		if s.feedFromCache(id, p.want) {
			continue
		}
		tried := map[uint64]bool{deadID: true}
		for {
			target, owners := s.repullTarget(id, tried)
			if target == nil {
				// Every waiter's submitting session is gone too: a
				// job outlives its connection, and a re-attached
				// client holds a session this fetch never saw.
				// Without this fallback the interleaving "new
				// session's hello coalesces on the old session's
				// flight, then the old session dies" strands the job
				// in fetching forever — the released flight would be
				// dropped on the floor because only stale j.sess
				// pointers were consulted.
				target = s.liveSessionOf(owners, tried)
			}
			if target == nil {
				// No live session for any waiter: the fetch is
				// dropped here, and the owner's next hello re-pulls
				// it (repullWaitingInputs). Peers parked on the
				// abandoned flight and covered by no other are
				// declined now — their links are healthy, so no
				// teardown would ever answer them — and fall back to
				// pulling from their own clients.
				_ = s.arrived(nil, p.ref, id, 0, nil, p.tc, nil)
				break
			}
			if target.pullFile(p.ref, p.want, p.tc) == nil {
				break
			}
			// The chosen session died between being picked and the
			// send. Its own teardown sweep may already have run and
			// missed the flight our pull just registered on it, so
			// undo that registration ourselves and try the next
			// candidate.
			tried[target.id] = true
			s.files.release(id, target.id)
		}
	}
}

// repullTarget scans the jobs waiting on the file for one whose submitting
// session is still live (and not in skip). When none is, it returns the
// waiters' owner identities so the caller can fall back to any live session
// of the same client.
func (s *Server) repullTarget(id naming.ShadowID, skip map[uint64]bool) (*session, []identity) {
	sh, r := s.files.lock(id)
	defer sh.unlock(id, r)
	var owners []identity
	for _, j := range r.jobs {
		j.mu.Lock()
		_, waiting := j.waitsFor(id)
		sess := j.sess
		owner := j.owner
		j.mu.Unlock()
		if !waiting {
			continue
		}
		if sess != nil && !skip[sess.id] && !sess.dead.Load() {
			return sess, nil
		}
		owners = append(owners, owner)
	}
	return nil, owners
}

// liveSessionOf returns the newest live session belonging to one of the
// given identities, excluding the skip set. Identity reads share deliverMu
// with handleHello's registration, so a session that has said hello is
// visible here.
func (s *Server) liveSessionOf(owners []identity, skip map[uint64]bool) *session {
	if len(owners) == 0 {
		return nil
	}
	want := make(map[identity]bool, len(owners))
	for _, o := range owners {
		want[o] = true
	}
	s.deliverMu.Lock()
	defer s.deliverMu.Unlock()
	var target *session
	for _, sess := range s.sessions.snapshot() {
		if skip[sess.id] || sess.dead.Load() || !sess.servesClient() || !want[sess.identity()] {
			continue
		}
		if target == nil || sess.id > target.id {
			target = sess
		}
	}
	return target
}

// sendHeld transmits previously held outputs to a freshly identified
// session. Failed sends re-enter the hold queues via deliverOutput's normal
// path.
func (s *Server) sendHeld(ss *session, ids []uint64) {
	for _, id := range ids {
		j, ok := s.lookupJob(id)
		if !ok {
			continue
		}
		if s.sendOutput(ss, j, false) != nil {
			// This session is already gone again; requeue for the
			// next one.
			s.dropSession(ss)
			s.deliverOutput(j)
		}
	}
}

// sendOutput transmits a job's results to a session, using reverse shadow
// processing when the submitter asked for it and the receiving session holds
// the previous output of the same script. The send is synchronous — the
// caller's hold-and-requeue logic needs the real transport outcome.
func (s *Server) sendOutput(target *session, j *job, forceFull bool) error {
	j.mu.Lock()
	res := j.result
	state := j.state
	scriptSum := j.scriptSum
	wantDelta := j.wantOutputDelta
	retired := j.retired
	j.mu.Unlock()
	if retired {
		// Acknowledged while this (re-)delivery was on its way here: the
		// client has the output and the result is gone.
		return nil
	}

	mode := wire.OutputFull
	payload := res.Stdout
	compressOn := s.cfg.Compress

	if compressOn || (wantDelta && !forceFull) {
		var prev []byte
		if wantDelta && !forceFull {
			prev = target.prevOutput(scriptSum)
		}
		m, p, err := core.OutputTransfer(prev, res.Stdout, s.cfg.Algorithm, compressOn, s.cfg.Clock)
		if err == nil {
			mode, payload = m, p
		} else {
			compressOn = false
		}
	}

	s.counters.AddOutput(len(payload) + len(res.Stderr))
	modeName := "full"
	if mode == wire.OutputDelta {
		modeName = "delta"
	}
	osp := s.cfg.Obs.StartSpan(j.tc, "server.output").
		SetSession(target.id).SetJob(j.id).Annotate(modeName)
	stamp := s.cfg.Obs.Now()
	err := target.sendSync(&wire.Output{
		Job:        j.id,
		State:      state,
		ExitCode:   res.ExitCode,
		Mode:       mode,
		Stdout:     payload,
		Stderr:     res.Stderr,
		Compressed: compressOn,
	}, ctxOr(osp, j.tc))
	if err != nil {
		osp.Annotate(modeName + "; send failed")
	}
	if target.vt != nil {
		// Virtual time: the writer charges the line with the enqueue-time
		// stamp, and reading the shared simulated clock after the flush
		// would race the receive loop advancing it on the next arrival —
		// end the span at the same instant the transmission is scheduled.
		osp.FinishAt(stamp)
	} else {
		osp.Finish()
	}
	if err == nil {
		// The cycle's server-side work is complete once the output is on
		// the wire; completion is idempotent, so the client closing its own
		// view of the trace is harmless.
		s.cfg.Obs.EndTrace(j.tc)
	}
	return err
}
