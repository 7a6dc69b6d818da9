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
// loop, writer, flight recorder and teardown, its fetches and assemblies in
// the file table. PEER_NOTIFY is its PULL. The owner (this file's other half)
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
// The file table (files.go) extends single-winner coalescing across the
// cluster: a peer fetch is a flight owned by the link's session id, so local
// demand coalesces onto one PEER_NOTIFY exactly as client pulls coalesce onto
// one PULL, and a dying link re-homes its flights through dropSession like
// any dying session does. An owner that is itself still pulling the wanted
// version parks the peer's request on the file's record and answers on
// arrival — a file hot on many instances crosses the client-server edge
// exactly once.
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
	"log/slog"
	"sort"
	"sync/atomic"

	"shadowedit/internal/chunk"
	"shadowedit/internal/cluster"
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
	// A file leaving the cache takes its retained forwarding delta with it,
	// so the deltas can never outlive (or outgrow) the cache contents they
	// shadow.
	s.cache.SetEvictHook(func(id naming.ShadowID) { s.files.setDelta(id, nil) })
	s.clusterCfg.Store(&clusterState{
		ring:     cluster.NewRing(cluster.DefaultVirtualNodes, spec.Members...),
		instance: spec.Instance,
		dial:     spec.Dial,
	})
	s.cfg.Obs.Log(slog.LevelInfo, "joined cluster", slog.String("instance", spec.Instance),
		slog.Int("members", len(spec.Members)), slog.Int("vnodes", cluster.DefaultVirtualNodes))
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
	s.files.setDelta(id, &storedDelta{
		base:       m.BaseVersion,
		version:    m.Version,
		encoded:    m.Encoded,
		compressed: m.Compressed,
		fullLen:    fullLen,
	})
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

// park parks w on id's flight if the fetch in flight covers its want. The
// flight and the cache are looked at in the same critical section as the
// arrival's: cached reports that the version the request wants is already
// here (its arrival beat the park), and neither result means no fetch covers
// it.
func (s *Server) park(id naming.ShadowID, w peerWant) (parked, cached bool) {
	sh, r := s.files.lock(id)
	if v, ok := s.cache.Version(id); ok && v >= w.want {
		cached = true
	} else if r.fetching && r.flight.want >= w.want {
		r.peers = append(r.peers, w)
		parked = true
	}
	sh.unlock(id, r)
	return parked, cached
}

// declinePeer sends w the negative answer and closes its serve span, with
// the per-session and fleet counters that go with it.
func (s *Server) declinePeer(w peerWant) {
	s.counters.AddPeerNegative()
	w.ss.peerDeclined.Add(1)
	w.sp.Annotate("declined").Finish()
	_ = w.ss.sendTraced(&wire.PeerDelta{File: w.ref}, ctxOr(w.sp, w.tc))
	s.cfg.Obs.EndTrace(w.tc)
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
	ss.srv.cfg.Obs.Log(slog.LevelInfo, "peer hello", slog.Uint64("session", ss.id), slog.String("instance", m.Instance))
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
	w := peerWant{ss: ss, ref: m.File, have: m.HaveVersion, want: m.WantVersion, tc: tc, sp: sp}
	if s.answerPeer(id, w) {
		return nil
	}
	// Not servable right now. If a fetch covering the want is already in
	// flight here, park the request on the arrival instead of declining —
	// the cross-cluster half of flight coalescing. The span parks with it:
	// its duration then covers the wait the requester actually experienced
	// (annotated first: once parked, the span is the arrival's to finish).
	sp.Annotate("parked")
	if parked, cached := s.park(id, w); !parked && !(cached && s.answerPeer(id, w)) {
		s.declinePeer(w)
	}
	return nil
}

// answerPeer tries to serve w — (have → want-or-newer) of id — from local
// state, reporting whether an answer went out. Preference order: forward the
// client's delta verbatim, else send a chunk manifest. Send failures still
// count as answered — the dying session's teardown handles the rest. The
// answer frame carries the context of w's peer.serve span (so the
// requester's downstream spans nest under it), whose annotation records which
// answer form won. An answered request is finished here: the span closes and
// the owner's share of a propagated trace is done (a chunk gap-fill lands as
// late spans); without that the record never completes on an owner with its
// own tracer, since only the executing member reaches the job-delivery
// EndTrace. Idempotent, so a shared tracer (netsim) only completes earlier.
func (s *Server) answerPeer(id naming.ShadowID, w peerWant) bool {
	sh, r := s.files.lock(id)
	d := r.delta
	sh.unlock(id, r)
	var answer wire.Message
	if d != nil && w.have != 0 && d.base == w.have && d.version >= w.want {
		// A delta can encode larger than the content it produces (tiny
		// files, incompressible edits); the saved-bytes counter is a fleet
		// observable and must never go backwards, so clamp at zero.
		s.counters.AddPeerDelta(len(d.encoded))
		s.counters.AddPeerForward(max(d.fullLen-len(d.encoded), 0))
		w.sp.Annotate("delta-forward")
		answer = &wire.PeerDelta{File: w.ref, BaseVersion: d.base, Version: d.version, Encoded: d.encoded, Compressed: d.compressed}
	} else {
		// Version, manifest and sum come from one locked lookup, so they
		// describe one version, and the file is never assembled.
		ver, man, sum, ok := s.cache.Manifest(id)
		if !ok || ver < w.want {
			return false
		}
		refs := make([]wire.ChunkRef, len(man))
		for i, r := range man {
			refs[i] = wire.ChunkRef{Hash: r.Hash, Len: r.Len}
		}
		pc := &wire.PeerChunk{File: w.ref, Version: ver, Sum: sum, Chunks: refs}
		s.counters.AddPeerManifest(pc.PayloadLen())
		s.counters.AddPeerForward(int(man.TotalLen()))
		w.sp.Annotate("manifest")
		answer = pc
	}
	_ = w.ss.sendTraced(answer, ctxOr(w.sp, w.tc))
	w.ss.peerServed.Add(1)
	w.sp.Finish()
	s.cfg.Obs.EndTrace(w.tc)
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
		// swept the file table and missed the flight this pull just
		// registered, so undo that registration here.
		if f, ok := s.files.release(s.dir.Intern(ref), link.id); ok {
			f.span.Annotate("link-down").Finish()
		}
	}
	s.counters.AddOwnerMiss()
	s.cfg.Obs.Log(slog.LevelDebug, "owner unreachable; pulling from client", slog.String("file", ref.String()),
		slog.String("owner", owner), slog.Any("error", err))
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
	s.cfg.Obs.Log(slog.LevelInfo, "peer link up", slog.String("member", member), slog.Uint64("session", l.id))
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
// fetch redials.
func (s *Server) dropLink(l *session) {
	s.peerMu.Lock()
	if s.peerLinks[l.link.member] == l {
		delete(s.peerLinks, l.link.member)
	}
	s.peerMu.Unlock()
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
	// Fetching counts the chunk assemblies whose gaps are asked of the link
	// (file table).
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
	_, asms := s.files.fetches()
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
			Fetching:    asms[l.id],
		}
		if l.dead.Load() {
			info.State = "dead"
		}
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
