package server

// Cluster peering (protocol v5). A shadow-cache cluster is N servers, each
// running the unchanged single-server core, joined by a consistent-hash ring
// (internal/cluster) that names one instance as every (domain, file)'s
// owner. Clients route each file's traffic to its owner, so the owner's
// cache sees the client's deltas first; any other instance that needs the
// file — a job submitted there references it — fetches it from the owner
// over a peer session instead of pulling it from the client a second time.
//
// Peer sessions are ordinary protocol sessions: the dialing server sends a
// normal HELLO (negotiating v5 on the HelloOK trailing-optional field),
// then marks the session server-to-server with a PEER_HELLO. The owner
// answers a PEER_NOTIFY with the smallest thing that works:
//
//   - a PeerDelta forwarding the very FILE_DELTA body the client sent it,
//     verbatim, when its base is exactly what the requester holds;
//   - a PeerChunk manifest otherwise, which the requester resolves against
//     its own chunk store, fetching only the gaps with CHUNK_REQ/CHUNK_DATA
//     on the same session;
//   - a negative PeerDelta (Version 0) when it cannot serve — the requester
//     falls back to pulling from the client. Full file bodies never cross a
//     peer link; there is no peer full-file frame at all.
//
// The flight table extends single-winner coalescing across the cluster: a
// peer fetch is a flight owned by the peer link's pseudo-session id, so
// local demand coalesces onto one PEER_NOTIFY exactly as client pulls
// coalesce onto one PULL, and a dying link re-homes its flights through
// repullPending like a dying session does. An owner that is itself still
// pulling the wanted version parks the peer's request (peerWaiters) and
// answers on arrival — a file hot on many instances crosses the
// client-server edge exactly once.

// Peer traffic is traced like client traffic: PEER_NOTIFY, PEER_DELTA,
// PEER_CHUNK and the gap-fill CHUNK_REQ/CHUNK_DATA frames all carry the v2
// trace-context header when the triggering cycle is traced, so a cycle
// whose input lives on another member renders as one causal trace — the
// requester's peer.fetch span parenting the owner's peer.serve (and
// peer.chunks) spans. Untraced cycles carry a zero context, which encodes
// to the exact pre-trace bytes. Each link also keeps a session-style
// flight-recorder ring, dumped when the link dies or a fetch degrades to
// the client-pull path.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"shadowedit/internal/cache"
	"shadowedit/internal/chunk"
	"shadowedit/internal/cluster"
	"shadowedit/internal/diff"
	"shadowedit/internal/naming"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// ClusterSpec configures a server's membership in a shadow-cache cluster.
type ClusterSpec struct {
	// Instance is this server's member name on the ring. It must appear in
	// Members.
	Instance string
	// Members are all cluster member names, including Instance. Every
	// instance must be configured with the same member list: the ring is
	// deterministic, so identical lists mean identical placement. The
	// virtual-node count is fixed at cluster.DefaultVirtualNodes on every
	// node — servers and clients build their rings independently, and a
	// configurable count either side could get wrong would silently break
	// the "no placement metadata crosses the wire" contract.
	Members []string
	// Dial opens a transport to a remote member, by name.
	Dial func(member string) (wire.Conn, error)
}

// clusterState is the immutable cluster view installed by JoinCluster.
type clusterState struct {
	ring     *cluster.Ring
	instance string
	dial     func(member string) (wire.Conn, error)
}

// JoinCluster places the server on a cluster ring. Call it after New and
// before Serve; a server that never joins behaves exactly as before (every
// file is "owned" locally and no peer traffic exists).
func (s *Server) JoinCluster(spec ClusterSpec) {
	// The peer maps themselves were already initialized by New, so peer
	// frames are map-safe even on a server that never joins. Dropping each
	// retained peer delta in lockstep with its cache entry bounds the
	// forwarding state by the cache's own footprint.
	s.cache.SetEvictHook(s.dropPeerDelta)
	s.clusterCfg.Store(&clusterState{
		ring:     cluster.NewRing(cluster.DefaultVirtualNodes, spec.Members...),
		instance: spec.Instance,
		dial:     spec.Dial,
	})
	s.logf("joined cluster as %s (%d members, %d vnodes)", spec.Instance, len(spec.Members), cluster.DefaultVirtualNodes)
}

// Clustered reports whether the server has joined a cluster.
func (s *Server) Clustered() bool { return s.clusterCfg.Load() != nil }

// Instance returns the server's cluster member name ("" when not clustered).
func (s *Server) Instance() string {
	if cs := s.clusterCfg.Load(); cs != nil {
		return cs.instance
	}
	return ""
}

// ownsFile reports whether this instance is ref's placement owner. A server
// outside any cluster owns everything — the pre-v5 behavior.
func (s *Server) ownsFile(ref wire.FileRef) bool {
	cs := s.clusterCfg.Load()
	return cs == nil || cs.ring.Owner(ref.String()) == cs.instance
}

// storedDelta is the most recent client FILE_DELTA seen for a file,
// retained (the decoded message owns its bytes, so aliasing is safe) to be
// forwarded verbatim to peers whose base matches. One delta per file: the
// footprint is one edit's worth of bytes per distinct hot file.
type storedDelta struct {
	base, version uint64
	encoded       []byte
	compressed    bool
	fullLen       int // applied content length, for bytes-saved accounting
}

// notePeerDelta captures a just-applied client delta for peer forwarding.
// A no-op outside a cluster.
func (s *Server) notePeerDelta(id naming.ShadowID, m *wire.FileDelta, fullLen int) {
	if s.clusterCfg.Load() == nil {
		return
	}
	s.deltaMu.Lock()
	s.lastDeltas[id] = &storedDelta{
		base:       m.BaseVersion,
		version:    m.Version,
		encoded:    m.Encoded,
		compressed: m.Compressed,
		fullLen:    fullLen,
	}
	s.deltaMu.Unlock()
}

func (s *Server) peerDeltaFor(id naming.ShadowID) *storedDelta {
	if s.clusterCfg.Load() == nil {
		return nil
	}
	s.deltaMu.Lock()
	d := s.lastDeltas[id]
	s.deltaMu.Unlock()
	return d
}

// dropPeerDelta is the cache's eviction hook: a file leaving the cache takes
// its retained forwarding delta with it, so lastDeltas can never outlive (or
// outgrow) the cache contents it shadows.
func (s *Server) dropPeerDelta(id naming.ShadowID) {
	s.deltaMu.Lock()
	delete(s.lastDeltas, id)
	s.deltaMu.Unlock()
}

// peerWant is one parked peer request: a peer session awaiting a version
// the owner is still fetching itself. sp is the owner-side peer.serve span,
// held open across the park so its duration covers the whole wait.
type peerWant struct {
	ss   *session
	ref  wire.FileRef
	have uint64
	want uint64
	tc   wire.TraceContext
	sp   *trace.Span
}

func (s *Server) addPeerWaiter(id naming.ShadowID, w peerWant) {
	s.peerWaitMu.Lock()
	s.peerWaiters[id] = append(s.peerWaiters[id], w)
	s.peerWaitMu.Unlock()
}

// feedPeerWaiters answers parked peer requests that an arrival satisfies.
// Called from feedWaitingJobs, so it rides the same arrival path jobs do.
// Waiters the arrival falls short of stay parked only while a fetch still
// covers their want; otherwise they are declined on the spot — a parked
// request must always end in an answer, or the requester's jobs hang on a
// healthy link forever.
func (s *Server) feedPeerWaiters(id naming.ShadowID, version uint64) {
	if s.clusterCfg.Load() == nil {
		return
	}
	s.peerWaitMu.Lock()
	list := s.peerWaiters[id]
	if len(list) == 0 {
		s.peerWaitMu.Unlock()
		return
	}
	pending, inFlight := s.flights.Pending(id)
	var ready, stranded []peerWant
	remaining := list[:0]
	for _, w := range list {
		switch {
		case version >= w.want:
			ready = append(ready, w)
		case inFlight && pending >= w.want:
			remaining = append(remaining, w)
		default:
			stranded = append(stranded, w)
		}
	}
	if len(remaining) == 0 {
		delete(s.peerWaiters, id)
	} else {
		s.peerWaiters[id] = remaining
	}
	s.peerWaitMu.Unlock()
	for _, w := range ready {
		if s.answerPeer(w.ss, id, w.ref, w.have, w.want, w.tc, w.sp) {
			w.ss.peerServed.Add(1)
			w.sp.Finish()
			s.cfg.Obs.EndTrace(w.tc)
		} else {
			// The arrival satisfied the wait but the content has already
			// moved on or out of the cache; decline, the peer re-pulls.
			s.declinePeer(w.ss, w.ref, w.tc, w.sp)
		}
	}
	for _, w := range stranded {
		// The arrival fell short and no in-flight fetch covers the want any
		// more: decline now rather than park on a fetch that will never run.
		s.declinePeer(w.ss, w.ref, w.tc, w.sp)
	}
}

// declinePeer sends the negative answer and closes the serve span, with the
// per-session and fleet counters that go with it.
func (s *Server) declinePeer(ss *session, ref wire.FileRef, tc wire.TraceContext, sp *trace.Span) {
	s.counters.AddPeerNegative()
	ss.peerDeclined.Add(1)
	sp.Annotate("declined").Finish()
	_ = ss.sendTraced(&wire.PeerDelta{File: ref}, ctxOr(sp, tc))
	s.cfg.Obs.EndTrace(tc)
}

// declinePeerWaiters negatively answers every parked peer request for id.
// Called when the fetch the waiters were parked on is abandoned with no
// replacement (repullPending finding no live session): the requesters' own
// links are healthy, so nothing else would ever answer them, and a negative
// delta sends each one back to its client pull — the documented degradation.
func (s *Server) declinePeerWaiters(id naming.ShadowID) {
	if s.clusterCfg.Load() == nil {
		return
	}
	s.peerWaitMu.Lock()
	list := s.peerWaiters[id]
	delete(s.peerWaiters, id)
	s.peerWaitMu.Unlock()
	for _, w := range list {
		s.declinePeer(w.ss, w.ref, w.tc, w.sp)
	}
}

// purgePeerWaiters drops a dead peer session's parked requests (its own
// server re-homes the fetches the link owned; an answer to a dead session
// would go nowhere).
func (s *Server) purgePeerWaiters(dead *session) {
	if s.clusterCfg.Load() == nil || !dead.peer.Load() {
		return
	}
	s.peerWaitMu.Lock()
	var dropped []peerWant
	for id, list := range s.peerWaiters {
		kept := list[:0]
		for _, w := range list {
			if w.ss != dead {
				kept = append(kept, w)
			} else {
				dropped = append(dropped, w)
			}
		}
		if len(kept) == 0 {
			delete(s.peerWaiters, id)
		} else {
			s.peerWaiters[id] = kept
		}
	}
	s.peerWaitMu.Unlock()
	for _, w := range dropped {
		w.sp.Annotate("requester-gone").Finish()
		s.cfg.Obs.EndTrace(w.tc)
	}
}

// handlePeerHello marks the session server-to-server. The protocol version
// was already negotiated by the ordinary HELLO exchange.
func (ss *session) handlePeerHello(m *wire.PeerHello) error {
	ss.srv.counters.AddControl(0)
	if !ss.srv.Clustered() {
		// A server that never joined a cluster has no ring and no peers.
		// Refuse the handshake (any v5 client can emit the frame) so the
		// session never gains peer standing and the peer-only handlers
		// below keep rejecting its frames.
		return fmt.Errorf("PEER_HELLO on an unclustered server")
	}
	ss.mu.Lock()
	ss.peerInstance = m.Instance
	ss.mu.Unlock()
	ss.peer.Store(true)
	ss.srv.logf("session %d: peer hello from instance %s", ss.id, m.Instance)
	return nil
}

// handlePeerNotify serves a peer's version request (owner side). The whole
// decision — answer, park, or decline — lives under one peer.serve span
// stitched into the requester's trace by the propagated context, so a
// cross-instance fetch is not a black hole in the cycle timeline.
func (ss *session) handlePeerNotify(m *wire.PeerNotify, tc wire.TraceContext) error {
	ss.srv.counters.AddControl(0)
	if !ss.peer.Load() {
		return fmt.Errorf("PEER_NOTIFY on a client session")
	}
	s := ss.srv
	id := s.dir.Intern(m.File)
	s.heat.Touch(uint64(id)) // peer demand heats the file like client demand
	sp := s.cfg.Obs.StartSpan(tc, "peer.serve").SetSession(ss.id)
	if sp != nil {
		sp.SetFile(m.File.String())
	}
	if s.answerPeer(ss, id, m.File, m.HaveVersion, m.WantVersion, tc, sp) {
		ss.peerServed.Add(1)
		sp.Finish()
		// The owner's share of a propagated trace is done once the answer is
		// out (a chunk gap-fill lands as late spans); without this the record
		// never completes on an owner with its own tracer, since only the
		// executing member reaches the job-delivery EndTrace. Idempotent, so
		// a shared tracer (netsim) is unaffected beyond completing earlier.
		s.cfg.Obs.EndTrace(tc)
		return nil
	}
	// Not servable right now. If a fetch covering the want is already in
	// flight here, park the request on the arrival instead of declining —
	// the cross-cluster half of flight coalescing. The span parks with it:
	// its duration then covers the wait the requester actually experienced.
	if want, ok := s.flights.Pending(id); ok && want >= m.WantVersion {
		sp.Annotate("parked")
		s.addPeerWaiter(id, peerWant{ss: ss, ref: m.File, have: m.HaveVersion, want: m.WantVersion, tc: tc, sp: sp})
		// The arrival may have beaten the registration; re-check so the
		// request cannot park forever on a retired flight.
		if v, ok := s.cache.Version(id); ok && v >= m.WantVersion {
			s.feedPeerWaiters(id, v)
		}
		return nil
	}
	s.counters.AddPeerNegative()
	ss.peerDeclined.Add(1)
	sp.Annotate("declined").Finish()
	err := ss.sendTraced(&wire.PeerDelta{File: m.File}, ctxOr(sp, tc))
	s.cfg.Obs.EndTrace(tc)
	return err
}

// answerPeer tries to serve (have → want-or-newer) of id to a peer session
// from local state, reporting whether an answer went out. Preference order:
// forward the client's delta verbatim, else send a chunk manifest. Send
// failures still count as answered — the dying session's teardown handles
// the rest. sp is the caller's peer.serve span: the answer frame carries
// its context (so the requester's downstream spans nest under it) and the
// annotation records which answer form won; the caller finishes it.
func (s *Server) answerPeer(ss *session, id naming.ShadowID, ref wire.FileRef, have, want uint64, tc wire.TraceContext, sp *trace.Span) bool {
	if d := s.peerDeltaFor(id); d != nil && have != 0 && d.base == have && d.version >= want {
		// A delta can encode larger than the content it produces (tiny
		// files, incompressible edits); the saved-bytes counter is a fleet
		// observable and must never go backwards, so clamp at zero.
		saved := d.fullLen - len(d.encoded)
		if saved < 0 {
			saved = 0
		}
		s.counters.AddPeerDelta(len(d.encoded))
		s.counters.AddPeerForward(saved)
		sp.Annotate("delta-forward")
		_ = ss.sendTraced(&wire.PeerDelta{
			File:        ref,
			BaseVersion: d.base,
			Version:     d.version,
			Encoded:     d.encoded,
			Compressed:  d.compressed,
		}, ctxOr(sp, tc))
		return true
	}
	ver, man, ok := s.cache.Manifest(id)
	if !ok || ver < want {
		return false
	}
	e, ok := s.cache.Peek(id)
	if !ok || e.Version != ver {
		return false // racing replacement; the peer falls back to the client
	}
	refs := make([]wire.ChunkRef, len(man))
	for i, r := range man {
		refs[i] = wire.ChunkRef{Hash: r.Hash, Len: r.Len}
	}
	pc := &wire.PeerChunk{File: ref, Version: ver, Sum: diff.Checksum(e.Content), Chunks: refs}
	s.counters.AddPeerManifest(pc.PayloadLen())
	s.counters.AddPeerForward(len(e.Content))
	sp.Annotate("manifest")
	_ = ss.sendTraced(pc, ctxOr(sp, tc))
	return true
}

// handlePeerChunkReq serves a peer's gap-fill request from the chunk store
// (owner side). Chunks no longer resident are omitted; the requester treats
// an incomplete answer as a decline and falls back to the client.
func (ss *session) handlePeerChunkReq(m *wire.ChunkReq, tc wire.TraceContext) error {
	if !ss.peer.Load() {
		return fmt.Errorf("CHUNK_REQ on a client session")
	}
	ss.srv.counters.AddControl(0)
	sp := ss.srv.cfg.Obs.StartSpan(tc, "peer.chunks").SetSession(ss.id)
	if sp != nil {
		sp.SetFile(m.File.String())
	}
	store := ss.srv.cache.ChunkStore()
	reply := &wire.ChunkData{File: m.File, Version: m.Version}
	for _, h := range m.Hashes {
		if data, ok := store.Get(chunk.Hash(h)); ok {
			reply.Chunks = append(reply.Chunks, wire.ChunkBlob{Hash: h, Data: data})
		}
	}
	if sp != nil {
		sp.Annotate(fmt.Sprintf("%d/%d chunks", len(reply.Chunks), len(m.Hashes)))
	}
	ss.srv.counters.AddPeerChunkData(reply.PayloadLen())
	err := ss.sendTraced(reply, ctxOr(sp, tc))
	sp.Finish()
	return err
}

// fetchInput retrieves a job input: from the file's ring owner over a peer
// link when another instance owns it, otherwise from the client (the
// classic pull). Peer sessions always pull locally — peer requests must
// never cascade instance-to-instance.
func (ss *session) fetchInput(ref wire.FileRef, want uint64, tc wire.TraceContext) error {
	if !ss.srv.ownsFile(ref) && !ss.peer.Load() {
		return ss.srv.peerFetch(ss, ref, want, tc)
	}
	return ss.pullFile(ref, want, tc)
}

// peerFetch asks ref's owner instance for a version, coalescing local
// demand through the flight table (the link's pseudo-session id owns the
// flight). Any failure to reach the owner degrades to a client pull through
// fallback — correctness never depends on the cluster.
func (s *Server) peerFetch(fallback *session, ref wire.FileRef, want uint64, tc wire.TraceContext) error {
	id := s.dir.Intern(ref)
	var have uint64
	if v, ok := s.cache.Version(id); ok {
		have = v
		if have >= want {
			if e, ok := s.cache.Peek(id); ok {
				s.feedWaitingJobs(id, e.Version, e.Content)
			}
			return nil
		}
	}
	cs := s.clusterCfg.Load()
	owner := cs.ring.Owner(ref.String())
	link, err := s.peerLinkTo(owner)
	if err != nil {
		s.counters.AddOwnerMiss()
		s.logf("peer fetch %s v%d: owner %s unreachable (%v); pulling from client", ref, want, owner, err)
		return fallback.pullFile(ref, want, tc)
	}
	if !s.flights.Begin(id, ref, want, link.id, tc) {
		// A fetch covering this version is in flight (peer or client);
		// its arrival feeds every waiting job.
		s.pullsCoalesced.Add(1)
		return nil
	}
	// The requester-side half of the cross-instance trace: peer.fetch opens
	// when the flight is won and closes when the answer lands (handleDelta /
	// finishAssembly) or the fetch degrades to a client pull. The PEER_NOTIFY
	// carries its context, so the owner's peer.serve nests under it.
	sp := s.cfg.Obs.StartSpan(tc, "peer.fetch")
	if sp != nil {
		sp.SetFile(ref.String())
		link.trackSpan(id, sp)
	}
	s.pullsIssued.Add(1)
	s.counters.AddControl(0)
	if err := link.send(&wire.PeerNotify{File: ref, HaveVersion: have, WantVersion: want}, ctxOr(sp, tc)); err != nil {
		link.takeSpan(id).Annotate("send failed").Finish()
		s.flights.Release(id, link.id)
		s.counters.AddOwnerMiss()
		return fallback.pullFile(ref, want, tc)
	}
	return nil
}

// peerLink is one outbound peer session to a remote instance: lazily
// dialed, shared by every local session that needs that owner. It has a
// pseudo-session id so the flight table and repullPending treat it exactly
// like a session.
type peerLink struct {
	srv    *Server
	member string
	id     uint64
	proto  int // remote's negotiated protocol version

	mu       sync.Mutex
	conn     wire.Conn
	dead     bool
	fetching map[naming.ShadowID]*peerAssembly
	spans    map[naming.ShadowID]*trace.Span // open peer.fetch spans by file

	// rec is the link's flight recorder (nil when tracing is off): the same
	// 256-entry wire-event ring sessions keep, dumped when the link dies or
	// a fetch falls back to the client path.
	rec *trace.Ring

	// Per-link answer accounting for /peerz (the fleet-summed counters on
	// the server cannot say which link a forward came over).
	deltasIn    atomic.Int64 // positive PEER_DELTA answers received
	chunksIn    atomic.Int64 // PEER_CHUNK manifest answers received
	negativesIn atomic.Int64 // negative PEER_DELTA answers received
	fallbacks   atomic.Int64 // fetches degraded to the client-pull path
}

// trackSpan registers an open peer.fetch span for a file in flight on the
// link; takeSpan removes and returns it (nil when none or the link already
// tore down). The map rides l.mu with the assembly table.
func (l *peerLink) trackSpan(id naming.ShadowID, sp *trace.Span) {
	l.mu.Lock()
	if l.spans == nil {
		l.spans = make(map[naming.ShadowID]*trace.Span)
	}
	l.spans[id] = sp
	l.mu.Unlock()
}

func (l *peerLink) takeSpan(id naming.ShadowID) *trace.Span {
	l.mu.Lock()
	sp := l.spans[id]
	delete(l.spans, id)
	l.mu.Unlock()
	return sp
}

// record appends a flight-recorder event; a no-op when tracing is off.
func (l *peerLink) record(kind, name string, tc wire.TraceContext, detail string) {
	if l.rec == nil {
		return
	}
	l.rec.Record(trace.Event{
		At:     int64(l.srv.cfg.Obs.Now()),
		Kind:   kind,
		Name:   name,
		Trace:  tc.TraceID,
		Detail: detail,
	})
}

// dumpFlight retains the link's ring under the session dump list, with the
// member name standing in for the client identity. Unlike a session's
// once-per-life dump, a link dumps on every fallback and on death — the
// global dump bound caps the cost.
func (l *peerLink) dumpFlight(reason string) {
	if l.rec == nil {
		return
	}
	l.srv.appendFlightDump(FlightDump{
		Session: l.id,
		User:    "peer",
		Host:    l.member,
		Reason:  reason,
		At:      l.srv.cfg.Obs.Now(),
		Events:  l.rec.Snapshot(),
	})
	l.srv.logf("peer %s: flight recorder dumped (%s)", l.member, reason)
}

// errNotClustered reports peer operations on an unclustered server.
var errNotClustered = errors.New("server: not in a cluster")

// peerLinkTo returns the (dialed-on-demand) link to a member. The dial and
// handshake run under peerMu: first-use only, and serializing racing dials
// is simpler than discarding a loser's session.
func (s *Server) peerLinkTo(member string) (*peerLink, error) {
	cs := s.clusterCfg.Load()
	if cs == nil {
		return nil, errNotClustered
	}
	if member == cs.instance {
		return nil, fmt.Errorf("server: %s asked to peer with itself", member)
	}
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if s.peerLinks == nil {
		return nil, errNotClustered // shut down
	}
	if l := s.peerLinks[member]; l != nil {
		return l, nil
	}
	conn, err := cs.dial(member)
	if err != nil {
		return nil, err
	}
	if err := wire.Send(conn, &wire.Hello{
		Protocol:   wire.ProtocolVersion,
		User:       "shadowd",
		Domain:     "cluster",
		ClientHost: cs.instance,
	}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	reply, err := wire.Recv(conn)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	ok, isOK := reply.(*wire.HelloOK)
	if !isOK {
		_ = conn.Close()
		return nil, fmt.Errorf("peer %s: handshake answered with %v", member, reply.Kind())
	}
	if ok.Protocol < wire.PeerProtocolVersion {
		// The remote is an older build. Do not peer: the caller pulls from
		// the client instead, and the old instance's byte streams stay
		// exactly what a pre-v5 deployment produced.
		_ = conn.Close()
		return nil, fmt.Errorf("peer %s: speaks protocol %d, need %d", member, ok.Protocol, wire.PeerProtocolVersion)
	}
	if err := wire.Send(conn, &wire.PeerHello{Instance: cs.instance}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	l := &peerLink{
		srv:      s,
		member:   member,
		id:       s.nextSession.Add(1),
		proto:    int(ok.Protocol),
		conn:     conn,
		fetching: make(map[naming.ShadowID]*peerAssembly),
	}
	if s.cfg.Obs.Tracer() != nil {
		l.rec = trace.NewRing(flightRingSize)
	}
	s.peerLinks[member] = l
	go l.readLoop()
	s.logf("peer %s: link up (session %d)", member, l.id)
	return l, nil
}

// send writes one frame on the link, flushing if the transport buffers.
// Concurrent senders (sessions issuing peer fetches, the read loop issuing
// chunk requests) serialize on l.mu.
func (l *peerLink) send(m wire.Message, tc wire.TraceContext) error {
	// Recorded before the bytes hit the wire, like session sends: a frame
	// the owner received is guaranteed to be in the ring.
	l.record("send", m.Kind().String(), tc, "")
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return errSessionGone
	}
	if err := wire.SendTraced(l.conn, m, tc); err != nil {
		l.dead = true
		_ = l.conn.Close() // wake the read loop; it runs the teardown
		return err
	}
	if f, ok := l.conn.(wire.Flusher); ok {
		if err := f.Flush(); err != nil {
			l.dead = true
			_ = l.conn.Close()
			return err
		}
	}
	return nil
}

// readLoop consumes the owner's answers. On transport failure it tears the
// link down and re-homes every flight the link owned.
func (l *peerLink) readLoop() {
	for {
		msg, tc, err := wire.RecvTracedReuse(l.conn)
		if err != nil {
			l.down(err)
			return
		}
		l.record("recv", msg.Kind().String(), tc, "")
		switch m := msg.(type) {
		case *wire.PeerDelta:
			l.handleDelta(m, tc)
		case *wire.PeerChunk:
			l.handleChunk(m, tc)
		case *wire.ChunkData:
			l.handleChunkData(m, tc)
		case *wire.ErrorMsg:
			l.srv.logf("peer %s: remote error %d: %s", l.member, m.Code, m.Text)
		default:
			// HelloOK re-sends, held-output frames for the shadowd pseudo
			// identity, and anything a future version adds: ignore.
		}
	}
}

// down removes the dead link and re-homes its in-flight fetches through
// surviving client sessions — exactly what dropSession does for a dead
// session. Runs only on the read-loop goroutine.
func (l *peerLink) down(err error) {
	s := l.srv
	l.record("fault", "link", wire.TraceContext{}, err.Error())
	l.mu.Lock()
	l.dead = true
	fetching := l.fetching
	l.fetching = nil
	spans := l.spans
	l.spans = nil
	l.mu.Unlock()
	_ = l.conn.Close()
	s.peerMu.Lock()
	if s.peerLinks[l.member] == l {
		delete(s.peerLinks, l.member)
	}
	s.peerMu.Unlock()
	// Every open peer.fetch closes here; the re-homed client pulls mint
	// their own spans under the original context.
	for _, sp := range spans {
		sp.Annotate("link-down").Finish()
	}
	l.dumpFlight(fmt.Sprintf("link down: %v", err))
	for _, pa := range fetching {
		s.releasePeerHeld(pa)
	}
	if pending := s.flights.ReleaseOwner(l.id); len(pending) > 0 {
		for range pending {
			s.counters.AddRingRebalance()
		}
		s.logf("peer %s: link down (%v); re-homing %d fetches", l.member, err, len(pending))
		s.repullPending(l.id, pending)
	} else {
		s.logf("peer %s: link down (%v)", l.member, err)
	}
}

// fallbackToClient re-homes one flight the peer could not serve onto a
// client pull. Harmless if the flight has since completed or changed owner:
// repullPending's pull coalesces onto whatever is in flight. The open
// peer.fetch span closes here with the fallback reason, and the re-homed
// pull inherits its context so the degradation stays inside the one trace;
// the link's ring is dumped so the frames leading up to the fallback are
// inspectable on /flightz.
func (s *Server) fallbackToClient(l *peerLink, id naming.ShadowID, ref wire.FileRef, tc wire.TraceContext, why string) {
	sp := l.takeSpan(id)
	sp.Annotate("fallback: " + why).Finish()
	l.fallbacks.Add(1)
	l.record("fault", "fallback", tc, why)
	l.dumpFlight("fallback: " + why)
	want, ok := s.flights.Pending(id)
	if !ok {
		return
	}
	s.flights.Release(id, l.id)
	s.logf("peer %s: cannot serve %s v%d (%s); pulling from client", l.member, ref, want, why)
	s.repullPending(l.id, []cache.PendingFetch{{Ref: ref, Want: want, TC: ctxOr(sp, tc)}})
}

// handleDelta applies a peer-forwarded delta (requester side).
func (l *peerLink) handleDelta(m *wire.PeerDelta, tc wire.TraceContext) {
	s := l.srv
	id := s.dir.Intern(m.File)
	if m.Negative() {
		l.negativesIn.Add(1)
		s.fallbackToClient(l, id, m.File, tc, "declined")
		return
	}
	l.deltasIn.Add(1)
	have, ok := s.cache.Version(id)
	if ok && have >= m.Version {
		l.takeSpan(id).Annotate("already current").Finish()
		s.flights.Done(id, m.Version)
		if entry, ok := s.cache.Get(id); ok {
			s.feedWaitingJobs(id, entry.Version, entry.Content)
		}
		return
	}
	if !ok || have != m.BaseVersion {
		s.fallbackToClient(l, id, m.File, tc, "base not cached")
		return
	}
	content, err := s.applyDelta(id, &wire.FileDelta{
		File:        m.File,
		BaseVersion: m.BaseVersion,
		Version:     m.Version,
		Encoded:     m.Encoded,
		Compressed:  m.Compressed,
	}, false)
	if err != nil {
		s.fallbackToClient(l, id, m.File, tc, "delta did not apply")
		return
	}
	l.takeSpan(id).Annotate("delta").Finish()
	s.flights.Done(id, m.Version)
	s.feedWaitingJobs(id, m.Version, content)
}

// peerAssembly is one in-progress manifest answer: chunk references already
// pinned plus the gaps a single CHUNK_REQ round is filling.
type peerAssembly struct {
	ref      wire.FileRef
	version  uint64
	sum      uint32
	manifest chunk.Manifest
	held     []chunk.Hash
	missing  map[chunk.Hash]int
	tc       wire.TraceContext
}

// releasePeerHeld returns an abandoned assembly's chunk references.
func (s *Server) releasePeerHeld(pa *peerAssembly) {
	store := s.cache.ChunkStore()
	for _, h := range pa.held {
		store.Release(h)
	}
	pa.held = nil
}

// handleChunk resolves a peer manifest against the local chunk store
// (requester side), requesting only the gaps. One round: chunks the owner
// cannot supply mean a fallback, not a retry loop.
func (l *peerLink) handleChunk(m *wire.PeerChunk, tc wire.TraceContext) {
	s := l.srv
	id := s.dir.Intern(m.File)
	l.chunksIn.Add(1)
	if v, ok := s.cache.Version(id); ok && v >= m.Version {
		l.takeSpan(id).Annotate("already current").Finish()
		s.flights.Done(id, m.Version)
		return
	}
	store := s.cache.ChunkStore()
	pa := &peerAssembly{
		ref:      m.File,
		version:  m.Version,
		sum:      m.Sum,
		manifest: make(chunk.Manifest, len(m.Chunks)),
		missing:  make(map[chunk.Hash]int),
		tc:       tc,
	}
	for i, c := range m.Chunks {
		h := chunk.Hash(c.Hash)
		pa.manifest[i] = chunk.Ref{Hash: h, Len: c.Len}
		if store.Ref(h) {
			pa.held = append(pa.held, h)
		} else {
			pa.missing[h]++
		}
	}
	if len(pa.missing) == 0 {
		l.finishAssembly(id, pa)
		return
	}
	req := &wire.ChunkReq{File: m.File, Version: m.Version}
	for h := range pa.missing {
		req.Hashes = append(req.Hashes, h)
	}
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		s.releasePeerHeld(pa)
		return // down() re-homes the flight
	}
	if old := l.fetching[id]; old != nil {
		// Superseded by this newer manifest.
		defer s.releasePeerHeld(old)
	}
	l.fetching[id] = pa
	l.mu.Unlock()
	s.counters.AddChunksRequested(len(req.Hashes))
	_ = l.send(req, tc) // a failure tears the link down; down() re-homes
}

// handleChunkData completes (or abandons) a pending peer assembly
// (requester side).
func (l *peerLink) handleChunkData(m *wire.ChunkData, tc wire.TraceContext) {
	s := l.srv
	id := s.dir.Intern(m.File)
	l.mu.Lock()
	pa := l.fetching[id]
	if pa == nil || pa.version != m.Version {
		l.mu.Unlock()
		return // answer to a superseded request
	}
	delete(l.fetching, id) // pa is goroutine-local from here
	l.mu.Unlock()
	store := s.cache.ChunkStore()
	for _, blob := range m.Chunks {
		h := chunk.Hash(blob.Hash)
		if pa.missing[h] == 0 || chunk.HashOf(blob.Data) != h {
			continue
		}
		store.Put(h, blob.Data)
		pa.held = append(pa.held, h)
		for k := pa.missing[h]; k > 1; k-- {
			store.Ref(h)
			pa.held = append(pa.held, h)
		}
		delete(pa.missing, h)
	}
	if len(pa.missing) > 0 {
		// The owner no longer has some chunk (eviction race). Fall back.
		s.releasePeerHeld(pa)
		s.counters.AddFullFallback()
		s.fallbackToClient(l, id, pa.ref, tc, "incomplete chunk answer")
		return
	}
	l.finishAssembly(id, pa)
}

// finishAssembly verifies and installs a completed peer assembly, feeding
// the jobs that were waiting. References transfer to the cache entry.
func (l *peerLink) finishAssembly(id naming.ShadowID, pa *peerAssembly) {
	s := l.srv
	content, ok := s.cache.ChunkStore().Assemble(pa.manifest)
	if !ok || diff.Checksum(content) != pa.sum {
		s.releasePeerHeld(pa)
		s.counters.AddFullFallback()
		s.fallbackToClient(l, id, pa.ref, pa.tc, "checksum mismatch")
		return
	}
	s.cache.PutManifest(id, pa.version, pa.manifest)
	pa.held = nil // references now belong to the cache entry
	l.takeSpan(id).Annotate("chunks").Finish()
	s.flights.Done(id, pa.version)
	s.feedWaitingJobs(id, pa.version, content)
}

// ClusterMembers returns the cluster's member names in sorted order, or nil
// when the server is not clustered. The admin /clusterz view uses it to
// render the placement ring and find the peers to scrape.
func (s *Server) ClusterMembers() []string {
	cs := s.clusterCfg.Load()
	if cs == nil {
		return nil
	}
	return cs.ring.Members()
}

// PeerLinkInfo is one outbound peer link's admin-visible state (/peerz).
type PeerLinkInfo struct {
	// Member is the remote instance name; ID the link's pseudo-session id.
	Member string
	ID     uint64
	// State is "up" or "dead"; Protocol the remote's negotiated version.
	State    string
	Protocol int
	// Fetching counts manifest assemblies awaiting a chunk answer.
	Fetching int
	// Answer accounting, requester side: positive deltas, chunk manifests
	// and negative answers received, plus fetches that degraded to the
	// client-pull path.
	DeltasIn, ChunksIn, NegativesIn, Fallbacks int64
}

// PeerLinks returns a point-in-time view of every outbound peer link,
// sorted by member name.
func (s *Server) PeerLinks() []PeerLinkInfo {
	s.peerMu.Lock()
	links := make([]*peerLink, 0, len(s.peerLinks))
	for _, l := range s.peerLinks {
		links = append(links, l)
	}
	s.peerMu.Unlock()
	out := make([]PeerLinkInfo, 0, len(links))
	for _, l := range links {
		info := PeerLinkInfo{
			Member:      l.member,
			ID:          l.id,
			Protocol:    l.proto,
			DeltasIn:    l.deltasIn.Load(),
			ChunksIn:    l.chunksIn.Load(),
			NegativesIn: l.negativesIn.Load(),
			Fallbacks:   l.fallbacks.Load(),
		}
		l.mu.Lock()
		info.Fetching = len(l.fetching)
		if l.dead {
			info.State = "dead"
		} else {
			info.State = "up"
		}
		l.mu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Member < out[b].Member })
	return out
}

// PeerSessionInfo is one inbound peer session's admin-visible state
// (/peerz, owner side): requests served and declined over it.
type PeerSessionInfo struct {
	Session          uint64
	Instance         string
	Served, Declined int64
}

// PeerSessions returns a point-in-time view of every inbound peer session,
// sorted by session id.
func (s *Server) PeerSessions() []PeerSessionInfo {
	live := s.sessions.snapshot()
	out := make([]PeerSessionInfo, 0, 2)
	for _, ss := range live {
		if !ss.peer.Load() {
			continue
		}
		info := PeerSessionInfo{
			Session:  ss.id,
			Served:   ss.peerServed.Load(),
			Declined: ss.peerDeclined.Load(),
		}
		ss.mu.Lock()
		info.Instance = ss.peerInstance
		ss.mu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Session < out[b].Session })
	return out
}

// PeerFlights snapshots the live flight recorders of the outbound peer
// links, sorted by member name (/flightz). Empty when tracing is off.
func (s *Server) PeerFlights() []SessionFlight {
	s.peerMu.Lock()
	links := make([]*peerLink, 0, len(s.peerLinks))
	for _, l := range s.peerLinks {
		links = append(links, l)
	}
	s.peerMu.Unlock()
	out := make([]SessionFlight, 0, len(links))
	for _, l := range links {
		if l.rec == nil {
			continue
		}
		out = append(out, SessionFlight{Session: l.id, User: "peer", Host: l.member, Events: l.rec.Snapshot()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Host < out[b].Host })
	return out
}

// closePeerLinks tears down every outbound peer link (server shutdown).
func (s *Server) closePeerLinks() {
	s.peerMu.Lock()
	links := make([]*peerLink, 0, len(s.peerLinks))
	for _, l := range s.peerLinks {
		links = append(links, l)
	}
	s.peerLinks = nil
	s.peerMu.Unlock()
	for _, l := range links {
		l.mu.Lock()
		l.dead = true
		l.mu.Unlock()
		_ = l.conn.Close()
	}
}
