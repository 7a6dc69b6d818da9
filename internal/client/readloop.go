package client

import (
	"errors"
	"fmt"
	"path"
	"slices"

	"shadowedit/internal/core"
	"shadowedit/internal/env"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// readLoop is the client's background receiver for one connection: it
// answers server pulls (that is where shadow deltas are produced), applies
// acks to the version store, receives job output, and routes request replies
// to the waiting caller. It exits when the connection ends, recording the
// cause in lastDrop for the supervisor.
//
// The loop is the connection's only receiver, and decoding copies every
// field out of the frame, so nothing aliases the frame the connection lent
// once a message is dispatched.
func (c *Client) readLoop(conn wire.Conn) {
	for {
		msg, tc, err := wire.RecvTraced(conn)
		if err != nil {
			c.mu.Lock()
			c.lastDrop = err
			c.mu.Unlock()
			return
		}
		switch m := msg.(type) {
		case *wire.Pull:
			c.handlePull(m, tc)
		case *wire.ChunkReq:
			c.handleChunkReq(m, tc)
		case *wire.FileAck:
			// Store first, signal second: a waiter woken by the signal
			// always observes the ack it was woken for.
			c.store.Ack(m.File, m.Version)
			select {
			case c.ackSignal <- struct{}{}:
			default:
			}
		case *wire.Output:
			c.handleOutput(m, tc)
		case *wire.SubmitOK, *wire.StatusReply, *wire.TreeDiff:
			c.routeReply(msg)
		case *wire.ErrorMsg:
			c.handleError(m)
		default:
			// Unknown pushes are ignored for forward compatibility.
		}
	}
}

// routeReply hands a response to the caller blocked in roundTrip, if any.
// A SUBMIT_OK additionally registers the pending submit's job metadata
// and job record right here, before the caller resumes: the job's OUTPUT may be the very
// next message, and handleOutput must find the job known by then.
func (c *Client) routeReply(msg wire.Message) {
	c.mu.Lock()
	if ok, isOK := msg.(*wire.SubmitOK); isOK && c.pending != nil {
		// Everything keyed by the job id is registered here and only
		// here, once per job: handleOutput clears it all when the output
		// lands, which can be before Submit even returns, so registering
		// again later (a retried submit's second SUBMIT_OK, or the caller
		// resuming) would re-park a span the read loop has already
		// finished. A job the database has as delivered was registered, and
		// cleared, before.
		a := c.awaited[ok.Job]
		if (a == nil || !a.known) && !c.jobdb.Delivered(c.serverName, ok.Job) {
			if a == nil {
				a = c.pending
				c.awaited[ok.Job] = a
			}
			a.install(c.pending, c.cfg.Env, ok.Job)
			c.jobdb.Record(env.JobRecord{Server: c.serverName, ID: ok.Job, State: wire.JobQueued,
				OutputFile: a.outputFile, ErrorFile: a.errorFile})
		}
		c.pending = nil
	}
	// The deposit happens under mu (safe: the send never blocks on a
	// buffered channel with a default case), so it is atomic with respect
	// to attempt's drain/install/clear of the shared reply channel — a
	// reply can never land in the channel after attempt has abandoned it.
	if ch := c.awaiting; ch != nil {
		select {
		case ch <- msg:
		default:
		}
	}
	c.mu.Unlock()
}

func (c *Client) handleError(m *wire.ErrorMsg) {
	c.mu.Lock()
	if ch := c.awaiting; ch != nil {
		select {
		case ch <- m:
			c.mu.Unlock()
			return
		default:
		}
	}
	if c.lastErr == nil {
		c.lastErr = m
	}
	c.mu.Unlock()
}

// handlePull answers a server pull with a delta when possible, a full copy
// otherwise. This runs in the background, so "the changes could be sent in
// the background while the user is modifying the second file" (§5.1).
// A traced pull (tc valid) gets a "client.answer-pull" span, and the reply
// frame propagates the cycle's context back so the server's apply joins it.
// The reply shares the version store's bytes until it is sent, so the whole
// answer runs under a store borrow: an acknowledgement pruning the version
// meanwhile (on another session of a ClusterClient) cannot recycle them.
func (c *Client) handlePull(m *wire.Pull, tc wire.TraceContext) {
	c.store.Borrow()
	defer c.store.Release()
	sp := c.cfg.Obs.StartSpan(tc, "client.answer-pull")
	if sp != nil {
		sp.SetFile(m.File.String())
	}
	defer sp.Finish()
	if c.chunkedActive() && c.answerPullChunked(m, tc, sp) {
		return
	}
	reply, err := core.AnswerPull(c.store, m, c.cfg.Env.Algorithm, c.cfg.Env.Compress, c.cfg.Clock)
	if err != nil {
		// The version store cannot satisfy the pull — typically a
		// client that restarted without restoring state. The named
		// file still exists in the user's environment, so re-read it
		// from disk and register it at (at least) the version the
		// server expects; transparency means the user never has to
		// repair this by hand.
		if _, _, rerr := c.store.CommitRead(m.File, m.WantVersion, func(dst []byte) ([]byte, error) {
			return c.cfg.Universe.ReadFileRef(dst, m.File)
		}); rerr == nil {
			reply, err = core.AnswerPull(c.store, m, c.cfg.Env.Algorithm, c.cfg.Env.Compress, c.cfg.Clock)
			sp.Annotate("restored from disk")
		}
	}
	if err != nil {
		// Truly gone (file deleted locally). Tell the server so it
		// does not wait forever.
		sp.Annotate("unknown file")
		_ = c.sendTraced(&wire.ErrorMsg{Code: wire.CodeUnknownFile, Text: err.Error()}, ctxOr(sp, tc))
		return
	}
	switch r := reply.(type) {
	case *wire.FileDelta:
		c.counters.AddDelta(len(r.Encoded))
		sp.Annotate("delta")
	case *wire.FileFull:
		c.counters.AddFull(len(r.Content))
		sp.Annotate("full")
		if m.HaveVersion > 0 {
			// The server asked for a delta but the base is gone here:
			// the transfer degraded to a full copy.
			c.counters.AddFullFallback()
			sp.Annotate("full-fallback")
		}
	}
	_ = c.sendTraced(reply, ctxOr(sp, tc))
}

// ctxOr propagates sp's context, falling back to the incoming one when
// local tracing is off — a trace minted by the peer survives an untraced
// hop here.
func ctxOr(sp *trace.Span, tc wire.TraceContext) wire.TraceContext {
	if sp != nil {
		return sp.Context()
	}
	return tc
}

// handleOutput receives a finished job's results, reconstructing them from
// an output delta when reverse shadow processing is active. Duplicate
// deliveries (a reconnect can re-send an output whose ack was lost) are
// acked but not re-surfaced: the job database already has the job delivered.
func (c *Client) handleOutput(m *wire.Output, tc wire.TraceContext) {
	dsp := c.cfg.Obs.StartSpan(tc, "client.deliver").SetJob(m.Job)
	defer dsp.Finish()
	c.mu.Lock()
	var meta awaitedJob
	if a := c.awaited[m.Job]; a != nil && a.known {
		meta = *a
	}
	known := meta.known
	var prev []byte
	if known {
		prev = c.outPrev[meta.scriptSum]
	}
	c.mu.Unlock()
	// A duplicate delivery must not rewrite result files or job records:
	// the first delivery already surfaced them to the user (and took the
	// job's record out, so without this it would pass for routed output).
	if !known && c.jobdb.Delivered(c.serverName, m.Job) {
		dsp.Annotate("duplicate")
		_ = c.send(&wire.OutputAck{Job: m.Job})
		return
	}

	stdout, err := core.ApplyOutput(m.Mode, m.Stdout, prev, m.Compressed)
	if errors.Is(err, core.ErrStaleBase) || (m.Mode == wire.OutputDelta && !known) {
		// Our base for the delta is gone: degrade gracefully to a full
		// transfer.
		c.counters.AddFullFallback()
		dsp.Annotate("base-evicted")
		if serr := c.sendTraced(&wire.OutputFullReq{Job: m.Job}, ctxOr(dsp, tc)); serr != nil {
			c.mu.Lock()
			if c.lastErr == nil && !c.closed {
				c.lastErr = tagErr(ErrBaseEvicted,
					fmt.Errorf("client: job %d: delta base evicted and full request failed: %w", m.Job, serr))
			}
			c.mu.Unlock()
		}
		return
	}
	if err != nil {
		c.noteErr(err)
		return
	}
	c.counters.AddOutput(len(m.Stdout) + len(m.Stderr))

	if known {
		c.mu.Lock()
		c.outPrev[meta.scriptSum] = stdout
		c.mu.Unlock()
	} else {
		// Routed output from a job submitted elsewhere; store under
		// default names.
		meta.outputFile = fmt.Sprintf("routed-job-%d.out", m.Job)
		meta.errorFile = fmt.Sprintf("routed-job-%d.err", m.Job)
	}

	// Store results where the user asked ("optional arguments allow the
	// user to specify the names of files into which the system stores
	// output and error messages").
	if err := c.writeResult(meta.outputFile, stdout); err != nil {
		c.noteErr(err)
	}
	if len(m.Stderr) > 0 {
		if err := c.writeResult(meta.errorFile, m.Stderr); err != nil {
			c.noteErr(err)
		}
	}

	// Delivered: under one lock the record is marked (it takes the received
	// bytes as they are — the message owns them, outPrev only ever reads
	// them — so an output is held once here and once on disk, and after a
	// few more deliveries on disk only), the job's record leaves awaited,
	// and it joins the list WaitAny serves. A Wait that comes later finds
	// the record delivered and the job listed; one already blocked holds the
	// channel closed below.
	c.mu.Lock()
	c.jobdb.Deliver(env.JobRecord{Server: c.serverName, ID: m.Job, State: m.State, ExitCode: m.ExitCode,
		Stdout: stdout, Stderr: m.Stderr, OutputFile: meta.outputFile, ErrorFile: meta.errorFile})
	var done chan struct{}
	if a := c.awaited[m.Job]; a != nil {
		done = a.done
		delete(c.awaited, m.Job)
	}
	if len(c.delivered) == maxUntaken {
		c.delivered = slices.Delete(c.delivered, 0, 1)
	}
	c.delivered = append(c.delivered, m.Job)
	c.mu.Unlock()
	// The cycle is counted before the Wait woken below can return, so a
	// caller reading the histogram after Wait finds it there.
	if meta.timed {
		c.cfg.Obs.ObserveCycle(meta.cycleStart)
	}
	_ = c.send(&wire.OutputAck{Job: m.Job})
	if done != nil {
		close(done)
	}
	// Output delivered: the cycle is over. Close its root span and move the
	// trace to the completed ring; the server ends it too after a
	// successful send, and completion is idempotent.
	if meta.span != nil {
		meta.span.Annotate("delivered").Finish()
	}
	c.cfg.Obs.EndTrace(ctxOr(meta.span, tc))
	select {
	case c.arrivals <- struct{}{}:
	default:
	}
}

// noteErr records the first error the read loop cannot report to a caller.
func (c *Client) noteErr(err error) {
	c.mu.Lock()
	if c.lastErr == nil {
		c.lastErr = err
	}
	c.mu.Unlock()
}

// resultPath anchors a relative result file name in WorkDir.
func (c *Client) resultPath(name string) string {
	if path.IsAbs(name) {
		return name
	}
	return path.Join(c.cfg.WorkDir, name)
}

// writeResult stores a result file, anchoring relative names in WorkDir.
func (c *Client) writeResult(name string, content []byte) error {
	return c.cfg.Universe.WriteFile(c.cfg.Host, c.resultPath(name), content)
}
