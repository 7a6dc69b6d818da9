package server

// Cluster peering. A shadow-cache cluster is N servers, each running the
// unchanged single-server core, joined by a consistent-hash ring
// (internal/cluster) that names one instance as every (domain, file)'s
// owner. Clients route each file's traffic to its owner, so the owner's
// cache sees the client's deltas first; any other instance that needs the
// file — a job submitted there references it — fetches it from the owner
// over a peer session instead of pulling it from the client a second time.
//
// A peer link is a session in the dialing role: the dialing server sends a
// normal HELLO, marks the connection server-to-server with a PEER_HELLO, and
// from then on runs it as a session like any accepted one — same receive
// loop, writer, flight recorder, pull bookkeeping, chunk assembly and
// teardown. PEER_NOTIFY is its PULL. The owner (this file's other half)
// answers with the smallest thing that works:
//
//   - a PeerDelta forwarding the very FILE_DELTA body the client sent it,
//     verbatim, when its base is exactly what the requester holds — ingested
//     as a FILE_DELTA is;
//   - a PeerChunk manifest otherwise, ingested as a FILE_MANIFEST with no
//     inline chunks is: resolved against the requester's own chunk store,
//     only the gaps fetched with CHUNK_REQ/CHUNK_DATA on the same session;
//   - a negative PeerDelta (Version 0) when it cannot serve — the requester
//     falls back to pulling from the client. Full file bodies never cross a
//     peer link; there is no peer full-file frame at all.
//
// The flight table extends single-winner coalescing across the cluster: a
// peer fetch is a flight owned by the link's session id, so local demand
// coalesces onto one PEER_NOTIFY exactly as client pulls coalesce onto one
// PULL, and a dying link re-homes its flights through dropSession like any
// dying session does. An owner that is itself still pulling the wanted
// version parks the peer's request (peerWaiters) and answers on arrival — a
// file hot on many instances crosses the client-server edge exactly once.
//
// Peer traffic is traced like client traffic: PEER_NOTIFY, PEER_DELTA,
// PEER_CHUNK and the gap-fill CHUNK_REQ/CHUNK_DATA frames all carry the
// trace-context header when the triggering cycle is traced, so a cycle whose
// input lives on another member renders as one causal trace — the
// requester's peer.fetch span parenting the owner's peer.serve (and
// peer.chunks) spans. Untraced cycles carry a zero context, which encodes to
// the plain frame.

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

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
// outside any cluster owns everything.
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

// handlePeerHello marks the session server-to-server.
func (ss *session) handlePeerHello(m *wire.PeerHello) error {
	ss.srv.counters.AddControl(0)
	if !ss.srv.Clustered() {
		// A server that never joined a cluster has no ring and no peers.
		// Refuse the handshake (any client can emit the frame) so the
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
	s.declinePeer(ss, m.File, tc, sp)
	return nil
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

// fetchInput retrieves a job input: from the file's ring owner over a link
// when another instance owns it, otherwise from the client (the classic
// pull). Peer sessions always pull locally — peer requests must never
// cascade instance-to-instance. Any failure to reach the owner degrades to a
// client pull — correctness never depends on the cluster.
func (ss *session) fetchInput(ref wire.FileRef, want uint64, tc wire.TraceContext) error {
	s := ss.srv
	if s.ownsFile(ref) || ss.peer.Load() {
		return ss.pullFile(ref, want, tc)
	}
	owner := s.clusterCfg.Load().ring.Owner(ref.String())
	link, err := s.peerLinkTo(owner)
	if err == nil {
		if err = link.pullFile(ref, want, tc); err == nil {
			return nil
		}
		// The link died under the request. Its own teardown may already have
		// swept the flight table and missed the flight this pull just
		// registered, so undo that registration here.
		s.flights.Release(s.dir.Intern(ref), link.id)
	}
	s.counters.AddOwnerMiss()
	s.logf("peer fetch %s v%d: owner %s unreachable (%v); pulling from client", ref, want, owner, err)
	return ss.pullFile(ref, want, tc)
}

// peerLink is what a session in the dialing role carries beyond an accepted
// one: the member it dialed and, for /peerz, per-link answer accounting (the
// fleet-summed counters on the server cannot say which link a forward came
// over).
type peerLink struct {
	member      string
	deltasIn    atomic.Int64 // positive PEER_DELTA answers received
	chunksIn    atomic.Int64 // PEER_CHUNK manifest answers received
	negativesIn atomic.Int64 // negative PEER_DELTA answers received
	fallbacks   atomic.Int64 // fetches degraded to the client-pull path
}

// errNotClustered reports peer operations on an unclustered server.
var errNotClustered = errors.New("server: not in a cluster")

// peerLinkTo returns the (dialed-on-demand) link to a member. The dial and
// handshake run under peerMu: first-use only, and serializing racing dials
// is simpler than discarding a loser's session.
func (s *Server) peerLinkTo(member string) (*session, error) {
	cs := s.clusterCfg.Load()
	if cs == nil {
		return nil, errNotClustered
	}
	if member == cs.instance {
		return nil, fmt.Errorf("server: %s asked to peer with itself", member)
	}
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if l := s.peerLinks[member]; l != nil {
		return l, nil
	}
	conn, err := cs.dial(member)
	if err != nil {
		return nil, err
	}
	if err := peerHandshake(conn, cs.instance); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("peer %s: %w", member, err)
	}
	// From here the link is a session: user "peer" at host = member on
	// /sessionz and /flightz, owner of its flights by session id, in s.wg so
	// Close waits for its teardown.
	l := s.startSession(conn, &peerLink{member: member})
	if l == nil {
		_ = conn.Close()
		return nil, errSessionGone // shutting down
	}
	s.peerLinks[member] = l
	s.logf("peer %s: link up (session %d)", member, l.id)
	return l, nil
}

// peerHandshake opens a server-to-server session on a fresh connection: the
// ordinary HELLO exchange, then PEER_HELLO.
func peerHandshake(conn wire.Conn, instance string) error {
	if err := wire.Send(conn, &wire.Hello{
		Protocol:   wire.ProtocolVersion,
		User:       "shadowd",
		Domain:     "cluster",
		ClientHost: instance,
	}); err != nil {
		return err
	}
	reply, err := wire.Recv(conn)
	if err != nil {
		return err
	}
	if _, ok := reply.(*wire.HelloOK); !ok {
		return fmt.Errorf("handshake answered with %v", reply.Kind())
	}
	return wire.Send(conn, &wire.PeerHello{Instance: instance})
}

// dropLink is dropSession's extra step for a link: forget it, so the next
// fetch redials, and close whatever peer.fetch spans are still open — the
// re-homed client pulls mint their own under the original context.
func (s *Server) dropLink(l *session) {
	s.peerMu.Lock()
	if s.peerLinks[l.link.member] == l {
		delete(s.peerLinks, l.link.member)
	}
	s.peerMu.Unlock()
	l.mu.Lock()
	spans := l.pullSpan
	l.pullSpan = make(map[naming.ShadowID]*trace.Span)
	l.mu.Unlock()
	for _, sp := range spans {
		sp.Annotate("link-down").Finish()
	}
}

// handlePeerDelta takes a link's PEER_DELTA answer: a decline, or the
// client's own delta forwarded verbatim.
func (ss *session) handlePeerDelta(m *wire.PeerDelta, tc wire.TraceContext) error {
	if m.Negative() {
		ss.link.negativesIn.Add(1)
		return ss.refetch(m.File, 0, tc, "declined")
	}
	ss.link.deltasIn.Add(1)
	return ss.ingestDelta(&wire.FileDelta{
		File:        m.File,
		BaseVersion: m.BaseVersion,
		Version:     m.Version,
		Encoded:     m.Encoded,
		Compressed:  m.Compressed,
	}, tc, false)
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
	// Member is the remote instance name; ID the link's session id.
	Member string
	ID     uint64
	// State is "up" or "dead".
	State string
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
	links := make([]*session, 0, len(s.peerLinks))
	for _, l := range s.peerLinks {
		links = append(links, l)
	}
	s.peerMu.Unlock()
	out := make([]PeerLinkInfo, 0, len(links))
	for _, l := range links {
		info := PeerLinkInfo{
			Member:      l.link.member,
			ID:          l.id,
			State:       "up",
			DeltasIn:    l.link.deltasIn.Load(),
			ChunksIn:    l.link.chunksIn.Load(),
			NegativesIn: l.link.negativesIn.Load(),
			Fallbacks:   l.link.fallbacks.Load(),
		}
		if l.dead.Load() {
			info.State = "dead"
		}
		l.mu.Lock()
		info.Fetching = len(l.assembling)
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
