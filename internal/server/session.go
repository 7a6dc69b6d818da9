package server

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"shadowedit/internal/cache"
	"shadowedit/internal/chunk"
	"shadowedit/internal/core"
	"shadowedit/internal/diff"
	"shadowedit/internal/naming"
	"shadowedit/internal/trace"
	"shadowedit/internal/tree"
	"shadowedit/internal/wire"
)

// outQueueDepth bounds each session's outbound pipeline. Deep enough that
// notify/pull/delta bursts never stall the receive loop; a full queue means
// the peer is not draining and backpressure is the right behavior.
const outQueueDepth = 256

// outbound is one queued wire message. sent, when non-nil, makes the send
// synchronous: the writer puts it on the wire and reports whether the
// transport took it — output delivery needs the failure to trigger
// hold-and-requeue semantics. (A channel of a pointer-free element is one
// allocation.)
type outbound struct {
	msg  wire.Message
	sent chan bool
	// tc is the trace context the frame carries (zero = untraced frame,
	// byte-identical to the version-1 encoding).
	tc wire.TraceContext
	// stamp is the virtual instant the message was enqueued, captured when
	// the transport keeps virtual time (session.vt). The writer transmits
	// from that instant, so pipelining never shifts simulated timing: by
	// the time the writer runs, the receive side may already have advanced
	// the host clock.
	stamp time.Duration
}

// session is one client connection's server-side state.
type session struct {
	srv  *Server
	conn wire.Conn
	id   uint64

	user       string
	domain     string
	clientHost string

	// mu guards the maps below and peerInstance: the session goroutine and
	// pool workers (job completion → drainDeferred/sendOutput) both touch
	// them. It is a leaf: nothing is locked while it is held.
	mu sync.Mutex
	// deferred holds notifies whose pulls the load-aware policy postponed,
	// keyed by interned file id, each with the trace context it arrived
	// under so a drained pull stays part of the notifying cycle's trace.
	// (All per-file maps key on naming.ShadowID rather than ref.String():
	// interning is two map probes, while the string key costs a fresh
	// concatenation on every hot-path lookup.)
	deferred map[naming.ShadowID]deferredNotify
	// trees caches the workspace summaries built for reconciliation
	// walks, keyed by workspace root. Each is a snapshot taken at
	// TREE_HEAD time and discarded when the walk's BATCH_NOTIFY lands.
	trees map[string]*tree.Tree
	// batchQueue and batchInflight window the pulls a BATCH_NOTIFY fans
	// out. The dispatch loop is the connection's only reader, so issuing a
	// workspace's worth of pulls from inside one handler would fill both
	// directions of the pipe and deadlock against the client answering
	// them; instead at most batchPullWindow pulls are outstanding, and each
	// arrival admits the next queued entry (see pumpBatch).
	batchQueue    []batchEntry
	batchInflight map[naming.ShadowID]struct{}
	// outPrev maps script checksum -> last acknowledged delivered stdout,
	// the base for reverse shadow processing.
	outPrev map[uint32][]byte

	// The pipelined writer: every outbound message is enqueued on out and
	// written by one writer goroutine, which gathers a burst into one write
	// when the queue goes idle. Per-file ordering is the queue order —
	// exactly the order the handlers sent.
	out        chan outbound
	quit       chan struct{}
	quitOnce   sync.Once
	writerDone chan struct{}
	dead       atomic.Bool
	// peer marks an accepted server-to-server session (a PEER_HELLO
	// arrived); peerInstance (under mu) is the remote's cluster member name.
	// peerServed/peerDeclined count the peer requests this session
	// answered positively and negatively (/peerz, owner side).
	peer         atomic.Bool
	peerInstance string
	peerServed   atomic.Int64
	peerDeclined atomic.Int64
	// link is non-nil on a session in the dialing role: this server opened
	// the connection to a cluster member and fetches from it (peer.go).
	// Immutable once the session is registered.
	link *peerLink
	// vt is non-nil when conn is a virtual-time transport; outbound
	// messages are then stamped at enqueue (see outbound.stamp).
	vt wire.ScheduledSender

	// rec is the flight recorder: a lock-free ring of this session's recent
	// protocol events, dumped on disconnect, writer fault, or job failure.
	// Nil when tracing is off (a nil ring discards everything).
	rec *trace.Ring
	// dumpOnce ensures disconnect and fault dump the ring once, with the
	// first reason winning. Job-failure dumps bypass it: the session lives
	// on and may dump again later.
	dumpOnce sync.Once
}

// deferredNotify is a postponed pull: the notify and its trace context.
type deferredNotify struct {
	m  *wire.Notify
	tc wire.TraceContext
}

func newSession(srv *Server, conn wire.Conn, id uint64) *session {
	vt, _ := conn.(wire.ScheduledSender)
	ss := &session{
		srv:           srv,
		conn:          conn,
		id:            id,
		deferred:      make(map[naming.ShadowID]deferredNotify),
		trees:         make(map[string]*tree.Tree),
		batchInflight: make(map[naming.ShadowID]struct{}),
		outPrev:       make(map[uint32][]byte),
		out:           make(chan outbound, outQueueDepth),
		quit:          make(chan struct{}),
		writerDone:    make(chan struct{}),
		vt:            vt,
	}
	if srv.cfg.Obs.Tracer() != nil {
		ss.rec = trace.NewRing(flightRingSize)
	}
	return ss
}

// flightRingSize is each session's flight-recorder capacity.
const flightRingSize = 256

// record appends a flight-recorder event; a no-op when tracing is off.
func (ss *session) record(kind, name string, tc wire.TraceContext, detail string) {
	if ss.rec == nil {
		return
	}
	ss.rec.Record(trace.Event{
		At:     int64(ss.srv.cfg.Obs.Now()),
		Kind:   kind,
		Name:   name,
		Trace:  tc.TraceID,
		Detail: detail,
	})
}

// dumpFlight snapshots the flight recorder into the server's dump list.
// Used by the once-only disconnect/fault paths; job failures call the
// server's recordFlightDump directly.
func (ss *session) dumpFlight(reason string) {
	if ss.rec == nil {
		return
	}
	ss.dumpOnce.Do(func() { ss.srv.recordFlightDump(ss, reason) })
}

func (ss *session) prevOutput(scriptSum uint32) []byte {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.outPrev[scriptSum]
}

func (ss *session) setPrevOutput(scriptSum uint32, stdout []byte) {
	ss.mu.Lock()
	ss.outPrev[scriptSum] = stdout
	ss.mu.Unlock()
}

// run is the session's receive loop. It exits on disconnect or protocol
// failure; either way the pending writes drain and the session is
// unregistered.
func (ss *session) run() {
	go ss.writer()
	defer ss.srv.dropSession(ss)
	defer ss.dumpFlight("disconnect")
	defer ss.shutdownWriter()
	// A session whose receive loop has exited can never converse again,
	// even if its writer never saw a send fail. Mark it dead first
	// (deferred last) so concurrent re-homing — repullPending choosing a
	// session for an orphaned fetch — never picks this one.
	defer ss.dead.Store(true)
	for {
		// This loop is the connection's only reader, and the decoded
		// message owns all its bytes, so the frame the transport lent is
		// free to be recycled by the next iteration.
		msg, tc, err := wire.RecvTraced(ss.conn)
		if err != nil {
			return // disconnect (io.EOF) or transport failure
		}
		ss.record("recv", msg.Kind().String(), tc, "")
		if err := ss.dispatch(msg, tc); err != nil {
			if errors.Is(err, errSessionGone) {
				return
			}
			// Protocol-level problems are reported to the other end;
			// transport failures end the session. So does an owner answering
			// a link with something unusable: the teardown re-homes every
			// fetch the link held, which no ERROR to the owner would.
			if sendErr := ss.sendError(wire.CodeBadRequest, err.Error()); sendErr != nil || ss.link != nil {
				return
			}
		}
	}
}

// writer drains the outbound queue into the connection. On a StreamConn it
// gathers the frames it drains, headers and all, in its own scratch and
// writes them at once when the queue goes idle, before it reports a
// synchronous send, on shutdown, and whenever the scratch passes its size
// bound — so a burst leaves in one write without ever delaying the last
// message of a burst. Any other transport gets one Send per frame from the
// same scratch (SendScheduled from the enqueue instant on a virtual-time
// link, so simulated figures stay exact).
func (ss *session) writer() {
	defer close(ss.writerDone)
	stream, _ := ss.conn.(*wire.StreamConn)
	var frames wire.Frames
	var sticky error
	fail := func(err error) {
		sticky = err
		ss.dead.Store(true)
		ss.record("fault", "writer", wire.TraceContext{}, err.Error())
		ss.dumpFlight("fault: " + err.Error())
		_ = ss.conn.Close() // wake the receive loop
	}
	flush := func() {
		if sticky == nil && stream != nil {
			if err := stream.WriteFrames(&frames); err != nil {
				fail(err)
			}
		}
	}
	writeOne := func(ob outbound) {
		if sticky == nil {
			ss.record("send", ob.msg.Kind().String(), ob.tc, "")
			var err error
			switch {
			case stream != nil:
				if err = frames.Append(ob.msg, ob.tc); err == nil && frames.Full() {
					err = stream.WriteFrames(&frames)
				}
			case ss.vt != nil:
				err = ss.vt.SendScheduled(frames.Payload(ob.msg, ob.tc), ob.stamp)
			default:
				err = ss.conn.Send(frames.Payload(ob.msg, ob.tc))
			}
			if err != nil {
				fail(err)
			}
		}
		if ob.sent != nil {
			flush()
			ob.sent <- sticky == nil
		}
	}
	for {
		select {
		case ob := <-ss.out:
			writeOne(ob)
		drain:
			for {
				select {
				case ob := <-ss.out:
					writeOne(ob)
				default:
					break drain
				}
			}
			flush() // the queue went idle
		case <-ss.quit:
			for {
				select {
				case ob := <-ss.out:
					writeOne(ob)
				default:
					flush()
					return
				}
			}
		}
	}
}

// shutdownWriter stops the writer — draining and writing whatever is
// queued — and then closes the connection. Safe to call more than once and
// from any goroutine.
func (ss *session) shutdownWriter() {
	ss.quitOnce.Do(func() { close(ss.quit) })
	<-ss.writerDone
	_ = ss.conn.Close()
}

func (ss *session) dispatch(msg wire.Message, tc wire.TraceContext) error {
	// The PEER_* kinds are the type-level gate between the roles: a link
	// takes its owner's answers and nothing a client would send (so no full
	// file can cross it), and nothing but a link takes those answers.
	switch msg.(type) {
	case *wire.PeerDelta, *wire.PeerChunk:
		if ss.link == nil {
			return fmt.Errorf("%v on a session that asked for nothing", msg.Kind())
		}
	case *wire.ChunkData, *wire.ErrorMsg:
	default:
		if ss.link != nil {
			return fmt.Errorf("%v on a peer link", msg.Kind())
		}
	}
	switch m := msg.(type) {
	case *wire.Hello:
		return ss.handleHello(m)
	case *wire.Notify:
		return ss.handleNotify(m, tc)
	case *wire.FileDelta:
		ss.srv.counters.AddDelta(len(m.Encoded))
		if err := ss.ingestDelta(m, tc, true); err != nil {
			return err
		}
		return ss.batchArrived(m.File)
	case *wire.PeerDelta:
		return ss.handlePeerDelta(m, tc)
	case *wire.FileFull:
		if err := ss.handleFileFull(m, tc); err != nil {
			return err
		}
		return ss.batchArrived(m.File)
	case *wire.FileManifest:
		ss.srv.counters.AddManifest(m.PayloadLen())
		if err := ss.ingestManifest(m, tc); err != nil {
			return err
		}
		return ss.batchArrived(m.File)
	case *wire.PeerChunk:
		// A manifest that inlines nothing: every gap is asked for.
		ss.link.chunksIn.Add(1)
		return ss.ingestManifest(&wire.FileManifest{File: m.File, Version: m.Version, Sum: m.Sum, Chunks: m.Chunks}, tc)
	case *wire.ChunkData:
		// Chunk bytes a link receives are counted where they were sent
		// (send-side-only peer accounting).
		if ss.link == nil {
			ss.srv.counters.AddChunkData(m.PayloadLen())
		}
		return ss.handleChunkData(m, tc)
	case *wire.Submit:
		return ss.handleSubmit(m, tc)
	case *wire.StatusReq:
		return ss.handleStatus(m)
	case *wire.OutputAck:
		return ss.handleOutputAck(m)
	case *wire.OutputFullReq:
		return ss.handleOutputFullReq(m)
	case *wire.TreeHead:
		return ss.handleTreeHead(m, tc)
	case *wire.TreeDiff:
		return ss.handleTreeDiff(m, tc)
	case *wire.BatchNotify:
		return ss.handleBatchNotify(m, tc)
	case *wire.PeerHello:
		return ss.handlePeerHello(m)
	case *wire.PeerNotify:
		return ss.handlePeerNotify(m, tc)
	case *wire.ChunkReq:
		return ss.handlePeerChunkReq(m, tc)
	case *wire.ErrorMsg:
		// Never answered: two servers reporting errors about each other's
		// error reports would not stop.
		ss.srv.cfg.Obs.Log(slog.LevelInfo, "remote error", slog.Uint64("session", ss.id),
			slog.Uint64("code", uint64(m.Code)), slog.String("text", m.Text))
		return nil
	case *wire.Bye:
		return errSessionGone
	default:
		return fmt.Errorf("unexpected message %v", msg.Kind())
	}
}

// send enqueues a message on the session's pipeline. It fails only when the
// session is already gone; transport failures surface through the receive
// loop (the writer closes the connection on error).
func (ss *session) send(m wire.Message) error {
	return ss.sendTraced(m, wire.TraceContext{})
}

// sendTraced enqueues a message carrying a trace context (zero = plain
// untraced frame).
func (ss *session) sendTraced(m wire.Message, tc wire.TraceContext) error {
	if ss.dead.Load() {
		return errSessionGone
	}
	select {
	case ss.out <- ss.stamped(outbound{msg: m, tc: tc}):
		return nil
	case <-ss.quit:
		return errSessionGone
	}
}

// stamped records the virtual enqueue time on ob when the transport keeps
// virtual time; on real transports it is the identity.
func (ss *session) stamped(ob outbound) outbound {
	if ss.vt != nil {
		ob.stamp = ss.vt.Now()
	}
	return ob
}

// sendSync enqueues a message and waits for the writer to put it (and
// everything queued before it) on the wire, reporting the transport result.
// Output delivery uses it: a failed send must requeue the output for the
// next session, so "sent" has to mean sent.
func (ss *session) sendSync(m wire.Message, tc wire.TraceContext) error {
	if ss.dead.Load() {
		return errSessionGone
	}
	ob := ss.stamped(outbound{msg: m, sent: make(chan bool, 1), tc: tc})
	select {
	case ss.out <- ob:
	case <-ss.quit:
		return errSessionGone
	}
	var sent bool
	select {
	case sent = <-ob.sent:
	case <-ss.writerDone:
		// The writer exited while we waited; it answered if it drained
		// our message before returning.
		select {
		case sent = <-ob.sent:
		default:
		}
	}
	if !sent {
		return errSessionGone
	}
	return nil
}

func (ss *session) sendError(code uint32, text string) error {
	return ss.send(&wire.ErrorMsg{Code: code, Text: text})
}

func (ss *session) handleHello(m *wire.Hello) error {
	if m.Protocol != wire.ProtocolVersion {
		_ = ss.sendError(wire.CodeBadRequest, fmt.Sprintf("protocol %d unsupported", m.Protocol))
		return errSessionGone
	}
	// Identity registration and the claim of held outputs share one
	// critical section with deliverOrHold's lookup-or-queue: an output
	// finishing concurrently with this hello is either claimed here or
	// sees the registered identity — it cannot fall in between.
	ss.srv.deliverMu.Lock()
	ss.user = m.User
	ss.domain = m.Domain
	ss.clientHost = m.ClientHost
	held := append(ss.srv.deliverRoutedToLocked(ss), ss.srv.deliverUndeliveredToLocked(ss)...)
	ss.srv.deliverMu.Unlock()
	// Outputs that were sent on a previous connection but never
	// acknowledged are re-sent too: the output or its ack may have died
	// with that connection (the client deduplicates).
	held = append(held, ss.srv.unackedDone(ss.identity(), held)...)
	ss.srv.cfg.Obs.Log(slog.LevelInfo, "session hello", slog.Uint64("session", ss.id), slog.String("user", ss.user),
		slog.String("host", ss.clientHost), slog.String("domain", ss.domain), slog.Int("held_outputs", len(held)))
	if err := ss.send(&wire.HelloOK{Session: ss.id, ServerName: ss.srv.cfg.Name, Protocol: wire.ProtocolVersion}); err != nil {
		return err
	}
	// Deliver any output routed to this host before we were connected,
	// and any output that finished while this user was disconnected; then
	// restart any input retrievals the previous session left dangling.
	ss.srv.sendHeld(ss, held)
	ss.srv.repullWaitingInputs(ss)
	return nil
}

// identity returns the session's owner key.
func (ss *session) identity() identity {
	return identity{user: ss.user, host: ss.clientHost}
}

// servesClient reports whether a user's client is at the other end — the only
// sessions an output may be delivered on or an orphaned fetch re-homed to.
// Links and accepted peer sessions are excluded by role, not by their
// pseudo-identities (peer@member, shadowd@member) never matching a real user.
func (ss *session) servesClient() bool {
	return ss.link == nil && !ss.peer.Load()
}

// handleNotify implements the demand-driven choice (§6.4): "The server ...
// may request the client to supply the updates immediately, or may postpone
// such a retrieval for a later time."
func (ss *session) handleNotify(m *wire.Notify, tc wire.TraceContext) error {
	ss.srv.counters.AddControl(0)
	// The notify span records the pull decision the instant it is made —
	// the paper's immediate/postpone choice is exactly what a trace reader
	// wants to see first. The String() rendering only happens when a span
	// actually exists: on trace-off runs it would be a per-notify
	// allocation for nobody.
	sp := ss.srv.cfg.Obs.StartSpan(tc, "server.notify").SetSession(ss.id)
	if sp != nil {
		sp.SetFile(m.File.String())
	}
	defer sp.Finish()
	// Every notify is one unit of demand for the ring-heat telemetry,
	// whether the pull happens now or is deferred.
	ss.srv.heat.Touch(uint64(ss.srv.dir.Intern(m.File)))
	// In a cluster, a notify for a file another instance owns is deferred
	// rather than pulled: the client routes the file's traffic to its
	// owner, so the owner is (or will be) fetching it, and this instance
	// peer-fetches on demand when a job here actually needs the file.
	if !ss.srv.ownsFile(m.File) && !ss.peer.Load() {
		sp.Annotate("deferred-nonowned")
		ss.deferNotify(m, tc)
		return nil
	}
	switch ss.srv.cfg.Pull {
	case PullLazy:
		sp.Annotate("deferred-lazy")
		ss.deferNotify(m, tc)
		return nil
	case PullLoadAware:
		queued, running := ss.srv.pool.Load()
		if queued+running >= ss.srv.cfg.LoadThreshold {
			sp.Annotate("deferred-load")
			ss.deferNotify(m, tc)
			return nil
		}
	}
	sp.Annotate("immediate")
	return ss.pullFile(m.File, m.Version, tc)
}

func (ss *session) deferNotify(m *wire.Notify, tc wire.TraceContext) {
	ss.srv.pullsDeferred.Add(1)
	id := ss.srv.dir.Intern(m.File)
	ss.mu.Lock()
	ss.deferred[id] = deferredNotify{m: m, tc: tc}
	ss.mu.Unlock()
}

// pullFile asks the session's other end for a version, telling it which base
// we hold: a client with PULL, the owner a link dialed with PEER_NOTIFY (under
// a peer.fetch span, which the owner's peer.serve nests beneath) — the frame
// and the span name are all that differ. Pulls already in flight for the same
// or a newer version are not repeated: the server's file table keeps one
// flight per file, so a notify+submit burst on one session costs one pull (a
// duplicate delta would look stale on arrival and trigger a wasteful full
// retransmission), and many clients notifying the same file, or many jobs here
// needing one file another member owns, cost one transfer.
func (ss *session) pullFile(ref wire.FileRef, want uint64, tc wire.TraceContext) error {
	id := ss.srv.dir.Intern(ref)
	var have uint64
	if v, ok := ss.srv.cache.Version(id); ok {
		have = v
		if have >= want {
			// Already current. Feed jobs that registered their wait
			// just as the content arrived — the arrival's feed can run
			// before the registration, and this is the re-check that
			// closes the window.
			ss.srv.feedFromCache(id, want)
			return nil
		}
	}
	name := "server.pull"
	if ss.link != nil {
		name = "peer.fetch"
	}
	var sp *trace.Span
	cur, won := ss.srv.files.begin(id, pendingFetch{ref: ref, want: want, owner: ss.id, tc: tc}, false, func() (time.Duration, *trace.Span) {
		sp = ss.srv.cfg.Obs.StartSpan(tc, name).SetSession(ss.id)
		if sp != nil {
			sp.SetFile(ref.String())
		}
		return ss.srv.cfg.Obs.Now(), sp
	})
	if !won && cur.owner == ss.id {
		return nil // this session's pull covering the version is in flight
	}
	ss.mu.Lock()
	delete(ss.deferred, id)
	ss.mu.Unlock()
	if !won {
		// Another session is already fetching this version; its arrival
		// feeds every waiting job, so no second transfer is needed.
		ss.srv.pullsCoalesced.Add(1)
		// Record the coalescing decision as an instant span: the cycle's
		// trace shows it waited on someone else's transfer.
		if csp := ss.srv.cfg.Obs.StartSpan(tc, "server.pull-coalesced"); csp != nil {
			csp.SetSession(ss.id).SetFile(ref.String())
			csp.Finish()
		}
		return nil
	}
	cur.span.Finish() // a pull of an older version, which this one replaces
	ss.srv.pullsIssued.Add(1)
	if ss.srv.cfg.Obs.LogEnabled(slog.LevelDebug) {
		ss.srv.cfg.Obs.Log(slog.LevelDebug, "pull issued",
			slog.Uint64("session", ss.id), slog.String("file", ref.String()),
			slog.Uint64("want", want), slog.Uint64("have", have))
	}
	req := wire.Message(&wire.Pull{File: ref, HaveVersion: have, WantVersion: want})
	if ss.link != nil {
		req = &wire.PeerNotify{File: ref, HaveVersion: have, WantVersion: want}
	}
	// The request carries the pull span's context, so the answer becomes its
	// child; without a server tracer the incoming context is forwarded
	// unchanged so propagation still works.
	return ss.sendTraced(req, ctxOr(sp, tc))
}

// ctxOr returns sp's context, falling back to tc when the span is nil
// (tracing off on this side, or an unsampled cycle).
func ctxOr(sp *trace.Span, tc wire.TraceContext) wire.TraceContext {
	if c := sp.Context(); c.Valid() {
		return c
	}
	return tc
}

// drainDeferred issues pulls that were postponed, if the load allows now.
func (ss *session) drainDeferred() {
	if ss.srv.cfg.Pull == PullLazy {
		return
	}
	queued, running := ss.srv.pool.Load()
	if queued+running >= ss.srv.cfg.LoadThreshold {
		return
	}
	ss.mu.Lock()
	pending := make([]deferredNotify, 0, len(ss.deferred))
	for _, n := range ss.deferred {
		pending = append(pending, n)
	}
	ss.mu.Unlock()
	for _, n := range pending {
		if ss.fetchInput(n.m.File, n.m.Version, n.tc) != nil {
			return
		}
	}
}

// ingestDelta is the one delta ingest: a client's FILE_DELTA (forward set —
// the delta is kept for verbatim peer forwarding) and an owner's PEER_DELTA
// both land here.
func (ss *session) ingestDelta(m *wire.FileDelta, tc wire.TraceContext, forward bool) error {
	sp := ss.srv.cfg.Obs.StartSpan(tc, "server.apply-delta").SetSession(ss.id)
	if sp != nil {
		sp.SetFile(m.File.String())
	}
	defer sp.Finish()
	id := ss.srv.dir.Intern(m.File)
	have, ok := ss.srv.cache.Version(id)
	if ok && have >= m.Version {
		// A duplicate or overtaken transfer; what we have is already
		// at least as new. Re-acknowledge idempotently.
		sp.Annotate("duplicate")
		return ss.srv.arrived(ss, m.File, id, have, nil, tc, nil)
	}
	if !ok || have != m.BaseVersion {
		// Our base is gone or different — the best-effort cache at work.
		sp.Annotate("base-evicted")
		return ss.refetch(m.File, m.Version, tc, "base not cached")
	}
	fb, err := ss.srv.applyDelta(id, m, forward)
	if errors.Is(err, core.ErrStaleBase) {
		sp.Annotate("stale-base")
		return ss.refetch(m.File, m.Version, tc, "stale base")
	}
	if err != nil {
		return fmt.Errorf("apply delta for %s: %w", m.File, err)
	}
	sp.Annotate("delta-applied")
	return ss.srv.arrived(ss, m.File, id, m.Version, fb, tc, sp)
}

// applyDelta upgrades the cached copy of id from fd.BaseVersion to
// fd.Version and returns the new content in a buffer on loan from the free list,
// which the caller hands on (arrived) or releases. The delta is applied where
// its base lives: the cache lends the base's chunks in place, under the lock
// that pins them, for the base checks and the in-order apply, and the
// unchanged stretches are copied once, chunk to output (cache.View,
// diff.Delta.ApplyInPlace). The base is checked by its length and the sum the
// cache recorded when it arrived, not by reading it again. Everything else runs outside that lock: decoding
// the delta, checking the target, storing the result, and the fallbacks for a
// delta that needs the base in one piece, which get a copy of it.
// The work is proportional to the edit plus one read of the file: the spans
// the delta rewrote let the cache derive the new chunk manifest from the
// base's, handing the unchanged chunks' references over instead of splitting
// and hashing the whole file (cache.PutFromBase).
// core.ErrStaleBase means the cache no longer holds the base (or holds
// different bytes under its version); caching the result is best effort.
//
// forward is set for a client's delta, which is remembered for verbatim peer
// forwarding (a no-op outside a cluster; the decoded message owns its bytes,
// so the retained slice cannot be clobbered by the next frame). It is
// recorded before the cache write: a write that evicts id — content over
// capacity drops the stale entry — fires the evict hook, which must find the
// delta there to drop, or it would outlive the entry it shadows.
func (s *Server) applyDelta(id naming.ShadowID, fd *wire.FileDelta, forward bool) (*fileBuf, error) {
	d, err := core.DecodeDelta(fd)
	if err != nil {
		return nil, err
	}
	out := s.bufs.borrow()
	var (
		content []byte
		spans   []chunk.Span
		whole   []byte // the base copied out, for a delta that needs it in one piece
		ok      bool
	)
	out.segs, ok = s.cache.View(out.segs, id, fd.BaseVersion, func(base [][]byte, sum uint32) {
		content, spans, err = d.ApplyInPlace(out.b, out.spans, base, sum)
		if err == diff.ErrNeedsWholeBase {
			whole = slices.Concat(base...)
		}
	})
	if !ok {
		out.release()
		return nil, fmt.Errorf("%w: %s base v%d", core.ErrStaleBase, fd.File, fd.BaseVersion)
	}
	if err == diff.ErrNeedsWholeBase {
		content, err = d.ApplyWhole(whole)
	}
	if err == nil {
		err = d.CheckTarget(content)
	}
	if err != nil {
		out.release()
		return nil, core.DeltaError(fd, err)
	}
	out.b = content
	if spans != nil {
		out.spans = spans
	}
	if forward {
		s.notePeerDelta(id, fd, len(content))
	}
	if err := s.cache.PutFromBase(id, fd.BaseVersion, fd.Version, content, d.TargetSum, spans); err != nil && !errors.Is(err, cache.ErrTooLarge) {
		out.release()
		return nil, err
	}
	return out, nil
}

// refetch replaces an answer that proved unusable (base gone, chunks
// missing, assembled bytes failing their checksum). A client is asked for a
// complete copy, bypassing the flight's duplicate-pull suppression; the
// flight's open span closes as superseded. A link's owner cannot be — no full
// file crosses a peer link — so the link gives the fetch up and a client
// session takes it over: the open peer.fetch span closes with the reason and
// the re-homed pull inherits its context, so the degradation stays inside the
// one trace, and the link's ring is dumped so the frames leading up to it are
// inspectable on /flightz. Harmless if the flight has since completed or
// changed owner: repullPending's pull coalesces onto whatever is in flight.
func (ss *session) refetch(ref wire.FileRef, want uint64, tc wire.TraceContext, why string) error {
	id := ss.srv.dir.Intern(ref)
	if ss.link != nil {
		ss.link.fallbacks.Add(1)
		ss.record("fault", "fallback", tc, why)
		ss.srv.recordFlightDump(ss, "fallback: "+why) // every fallback dumps, not only the first
		if f, ok := ss.srv.files.release(id, ss.id); ok {
			f.span.Annotate("fallback: " + why).Finish()
			f.tc = ctxOr(f.span, tc)
			ss.srv.repullPending(ss.id, []pendingFetch{f})
		}
		return nil
	}
	sp := ss.srv.cfg.Obs.StartSpan(tc, "server.pull-full").SetSession(ss.id)
	if sp != nil {
		sp.SetFile(ref.String())
	}
	f := pendingFetch{ref: ref, want: want, owner: ss.id, tc: tc, at: ss.srv.cfg.Obs.Now(), span: sp}
	old, _ := ss.srv.files.begin(id, f, true, nil)
	old.span.Annotate("superseded: " + why).Finish()
	ss.srv.pullsIssued.Add(1)
	return ss.sendTraced(&wire.Pull{File: ref, HaveVersion: 0, WantVersion: want}, ctxOr(sp, tc))
}

func (ss *session) handleFileFull(m *wire.FileFull, tc wire.TraceContext) error {
	ss.srv.counters.AddFull(len(m.Content))
	sp := ss.srv.cfg.Obs.StartSpan(tc, "server.apply-full").SetSession(ss.id)
	if sp != nil {
		sp.SetFile(m.File.String())
	}
	defer sp.Finish()
	content, err := core.ApplyFull(m)
	if err != nil {
		return fmt.Errorf("apply full for %s: %w", m.File, err)
	}
	id := ss.srv.dir.Intern(m.File)
	if have, ok := ss.srv.cache.Version(id); ok && have > m.Version {
		// Overtaken by a newer version; do not regress the cache.
		sp.Annotate("overtaken")
		return ss.srv.arrived(ss, m.File, id, have, nil, tc, nil)
	}
	// Cached best effort, with the sum ApplyFull verified (no base, no
	// spans: a full split). The message owns its bytes and the cache copies
	// what it keeps, so the content goes on to the waiting jobs as it is.
	if err := ss.srv.cache.PutFromBase(id, 0, m.Version, content, m.Sum, nil); err != nil && !errors.Is(err, cache.ErrTooLarge) {
		return err
	}
	return ss.srv.arrived(ss, m.File, id, m.Version, ss.srv.bufs.owned(content), tc, sp)
}

// arrived runs the shared bookkeeping for a version of id that landed on
// session from by whatever route, or that a duplicate answer found cached
// (content nil); from is nil for a version a re-check found cached and for an
// abandoned fetch (version 0). The file table settles the arrival, the pull
// it completes closes and from is acknowledged; then the assembly it overtook
// is dropped, owed acknowledgements are sent, parked peer requests answered or
// declined (a parked request always ends in an answer, or the requester's jobs
// hang on a healthy link), and the jobs it fed — a newer version than wanted
// satisfies a wait — scheduled. The ack goes first so that FILE_ACK precedes
// the OUTPUT of a job the arrival completes; the rest runs whatever its fate.
// arrived takes over the caller's reference on content (each job fed borrows
// it until its run ends) and ends the caller's apply span (nil when none)
// before anything is queued: under virtual time a span left open across the
// ack would end at whatever instant other sessions had advanced the clock to.
func (s *Server) arrived(from *session, ref wire.FileRef, id naming.ShadowID, version uint64, content *fileBuf, tc wire.TraceContext, apply *trace.Span) error {
	// Nearly always one job waits per arrival; the stack array keeps the
	// common case allocation-free.
	var readyArr [4]*job
	ready, a := s.files.arrive(id, version, content, readyArr[:0])
	if a.pull.want != 0 {
		a.pull.span.Finish()
		s.cfg.Obs.ObservePullArrival(a.pull.at)
	}
	apply.Finish()
	var err error
	if from != nil {
		if content != nil && s.cfg.Obs.LogEnabled(slog.LevelDebug) {
			s.cfg.Obs.Log(slog.LevelDebug, "file arrived",
				slog.Uint64("session", from.id), slog.String("file", ref.String()),
				slog.Uint64("version", version), slog.Int("bytes", len(content.b)))
		}
		err = from.ack(ref, version, tc)
	}
	if content != nil {
		content.release()
	}
	if a.overtaken != nil {
		s.poke(a.overtaken.drop(s))
	}
	for _, w := range a.acks {
		if w.ss != from {
			_ = w.ss.ack(w.ref, version, w.tc)
		}
	}
	for _, w := range a.answer {
		if !s.answerPeer(id, w) {
			// The arrival satisfied the wait but the content has already
			// moved on or out of the cache; decline, the peer re-pulls.
			a.decline = append(a.decline, w)
		}
	}
	for _, w := range a.decline {
		s.declinePeer(w)
	}
	for _, j := range ready {
		s.maybeSchedule(j)
	}
	return err
}

// ack acknowledges a version to the client that supplied (or already
// re-sent) it. An owner answering a link expects no acknowledgement.
func (ss *session) ack(ref wire.FileRef, version uint64, tc wire.TraceContext) error {
	if ss.link != nil {
		return nil
	}
	return ss.sendTraced(&wire.FileAck{File: ref, Version: version}, tc)
}

func (ss *session) handleSubmit(m *wire.Submit, tc wire.TraceContext) error {
	ackStart := ss.srv.cfg.Obs.Now()
	ss.srv.counters.AddControl(len(m.Script))
	sp := ss.srv.cfg.Obs.StartSpan(tc, "server.submit").SetSession(ss.id)
	defer sp.Finish()
	// Scripts repeat across submissions (the whole point of reverse shadow
	// processing), so parse results are cached by checksum server-wide.
	scriptSum := diff.Checksum(m.Script)
	cmds, inputNames, err := ss.srv.parsedScript(scriptSum, m.Script)
	if err != nil {
		return ss.sendError(wire.CodeBadRequest, err.Error())
	}
	// Every file the script references must be supplied.
	supplied := make(map[string]wire.JobInput, len(m.Inputs))
	for _, in := range m.Inputs {
		if _, dup := supplied[in.As]; dup {
			return ss.sendError(wire.CodeBadRequest, fmt.Sprintf("duplicate input name %q", in.As))
		}
		supplied[in.As] = in
	}
	for _, name := range inputNames {
		if _, ok := supplied[name]; !ok {
			return ss.sendError(wire.CodeBadRequest, fmt.Sprintf("script references %q but it was not submitted", name))
		}
	}

	// Idempotent retry detection: a tagged submission the server has seen
	// before is the client re-sending after a lost SUBMIT_OK, not a new
	// job. The lock spans check+create+insert so racing retries of one
	// tag resolve to one job.
	owner := ss.identity()
	if m.ClientTag != 0 {
		ss.srv.tagMu.Lock()
		if id, ok := ss.srv.submitTags[owner][m.ClientTag]; ok {
			ss.srv.tagMu.Unlock()
			ss.srv.cfg.Obs.Log(slog.LevelDebug, "duplicate submit tag", slog.Uint64("session", ss.id),
				slog.Uint64("tag", m.ClientTag), slog.Uint64("job", id))
			sp.SetJob(id).Annotate("duplicate-tag")
			if err := ss.sendTraced(&wire.SubmitOK{Job: id}, tc); err != nil {
				return err
			}
			// The original handler can die between creating the job and
			// gathering its inputs (its SUBMIT_OK send fails when the
			// connection drops mid-handler), leaving the job stranded:
			// nothing would ever fetch its inputs or schedule it, while
			// the retrying client waits on it forever. Re-drive gathering
			// through this session.
			if j, ok := ss.srv.lookupJob(id); ok {
				j.mu.Lock()
				stranded := !j.gathered && !j.state.Terminal() && j.state != wire.JobRunning
				if stranded {
					j.state = wire.JobFetching
					j.detail = "collecting input files"
				}
				j.mu.Unlock()
				if stranded {
					return ss.gatherInputs(j, tc)
				}
			}
			return nil
		}
	}

	j := &job{
		sess:  ss,
		owner: owner,
		// The decoded message owns its bytes (messages are never pooled),
		// so the job can alias the script and inputs directly.
		script:          m.Script,
		cmds:            cmds,
		scriptSum:       scriptSum,
		inputs:          m.Inputs,
		routeHost:       m.RouteHost,
		wantOutputDelta: m.WantOutputDelta,
		state:           wire.JobQueued,
		tag:             m.ClientTag,
		tc:              tc,
	}
	j.initInputs(ss.srv.dir)
	j.id = ss.srv.nextJob.Add(1)
	ss.srv.jobs.add(j)
	if m.ClientTag != 0 {
		tags := ss.srv.submitTags[owner]
		if tags == nil {
			tags = make(map[uint64]uint64)
			ss.srv.submitTags[owner] = tags
		}
		tags[m.ClientTag] = j.id
		ss.srv.tagMu.Unlock()
	}

	sp.SetJob(j.id)
	if err := ss.sendTraced(&wire.SubmitOK{Job: j.id}, tc); err != nil {
		return err
	}
	// The span ends at the ack (SUBMIT received → job created and acked):
	// gathering inputs has spans of its own, and on a simulated clock an
	// answer to the pulls it issues could otherwise land inside this one.
	sp.Finish()
	ss.srv.cfg.Obs.ObserveSubmitAck(ackStart)
	if ss.srv.cfg.Obs.LogEnabled(slog.LevelInfo) {
		ss.srv.cfg.Obs.Log(slog.LevelInfo, "job submitted",
			slog.Uint64("session", ss.id), slog.String("user", ss.user),
			slog.Uint64("job", j.id), slog.Int("inputs", len(m.Inputs)))
	}

	// Gather inputs: snapshot what the cache has, pull the rest on
	// demand. "The updates for the files involved may be obtained in the
	// background even before a submit request is received and processed"
	// — eager pulls often make this loop find everything cached already.
	j.setState(wire.JobFetching, "collecting input files")
	return ss.gatherInputs(j, tc)
}

// gatherInputs takes what the cache already holds for j's inputs, pulls the
// rest, and schedules the job once everything is in hand. Idempotent: inputs
// already in hand or registered as waiting are not re-registered, so a
// retried submit can re-drive a job whose first gathering was cut short by
// its session dying mid-handler.
func (ss *session) gatherInputs(j *job, tc wire.TraceContext) error {
	for i, in := range j.inputs {
		id := j.ins[i].id
		// A job referencing a file is demand on it, whether or not a pull
		// results — that is exactly what ring-heat placement cares about.
		ss.srv.heat.Touch(uint64(id))
		j.mu.Lock()
		have, waiting := j.ins[i].buf != nil, j.ins[i].waiting
		j.mu.Unlock()
		if have {
			continue
		}
		if !waiting {
			// In the usual order — SUBMIT right behind NOTIFY, the pull
			// still out — the cached version is the old one: GetAtLeast
			// counts the lookup and assembles nothing.
			fb := ss.srv.bufs.borrow()
			if e, ok := ss.srv.cache.GetAtLeast(fb.b, id, in.Version); ok && e.Version >= in.Version {
				fb.b = e.Content
				j.mu.Lock()
				j.ins[i].buf = fb
				j.mu.Unlock()
				continue
			}
			fb.release()
			j.mu.Lock()
			_, indexed := j.waitsFor(id) // the same file under a second name
			j.ins[i].waiting, j.ins[i].want = true, in.Version
			j.mu.Unlock()
			if !indexed {
				ss.srv.files.addJob(id, j)
			}
		}
		// Pull even when a wait was already registered: on a re-drive the
		// session that issued the original pull may be gone, and a
		// duplicate answer is absorbed by the overtaken check. In a
		// cluster, inputs another instance owns come from that owner over
		// a peer link instead of from the client (fetchInput).
		if err := ss.fetchInput(in.File, in.Version, tc); err != nil {
			return err
		}
	}
	j.mu.Lock()
	j.gathered = true
	j.mu.Unlock()
	ss.srv.maybeSchedule(j)
	return nil
}

func (ss *session) handleStatus(m *wire.StatusReq) error {
	ss.srv.counters.AddControl(0)
	reply := wire.StatusReply{Jobs: ss.srv.statusOf(ss.identity(), m.Job, m.All)}
	if !m.All && len(reply.Jobs) == 0 {
		return ss.sendError(wire.CodeUnknownJob, fmt.Sprintf("job %d unknown", m.Job))
	}
	return ss.send(&reply)
}

// handleOutputAck retires the job: its output has reached the client, so the
// server keeps a summary and, for reverse shadow processing, the stdout as
// this session's base for the next run of the same script. An ack for a job
// already retired (a duplicate delivery acknowledged twice) is ignored.
func (ss *session) handleOutputAck(m *wire.OutputAck) error {
	j, ok := ss.srv.lookupJob(m.Job)
	if !ok {
		return nil
	}
	if stdout, ok := ss.srv.acknowledge(ss, j); ok {
		ss.setPrevOutput(j.scriptSum, stdout)
	}
	return nil
}

func (ss *session) handleOutputFullReq(m *wire.OutputFullReq) error {
	j, ok := ss.srv.lookupJob(m.Job)
	if !ok {
		return ss.sendError(wire.CodeUnknownJob, fmt.Sprintf("job %d unknown", m.Job))
	}
	return ss.srv.sendOutput(ss, j, true /* forceFull */)
}
