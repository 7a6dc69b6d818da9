// Package server implements the shadow server that runs at each
// supercomputer site (§6.1): it accepts connections from clients, maintains
// the per-domain shadow cache and its name directory, retrieves file updates
// under demand-driven flow control, schedules and executes batch jobs, and
// transfers results back to the appropriate client.
//
// The server core is built to scale with sessions: the session and job
// tables are lock-striped, counters are atomics, job waiting-sets are
// indexed by file so an arrival feeds exactly the jobs that want it, and
// each session writes through its own pipelined writer goroutine — no
// global mutex sits on the message hot path.
//
// Observability is layered on without touching that property: when
// Config.Obs carries an internal/obs Observer, the server records
// submit→ack, pull→arrival and job queue→complete latency histograms and
// emits structured per-session/per-file events; with Obs nil every
// instrumentation point is a single pointer test. The Sessions, JobCounts
// and Observer accessors feed the shadowd admin endpoint (/sessionz,
// /metrics) without exposing session internals.
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shadowedit/internal/cache"
	"shadowedit/internal/cluster"
	"shadowedit/internal/core"
	"shadowedit/internal/diff"
	"shadowedit/internal/jobs"
	"shadowedit/internal/metrics"
	"shadowedit/internal/naming"
	"shadowedit/internal/obs"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// PullPolicy decides when the server retrieves a newly notified file version
// (§5.2): the demand-driven model leaves the timing entirely to the server.
type PullPolicy int

// Pull policies.
const (
	// PullEager retrieves updates as soon as the notify arrives, so they
	// travel in the background while the user keeps editing.
	PullEager PullPolicy = iota + 1
	// PullLazy retrieves updates only when a submitted job needs them.
	PullLazy
	// PullLoadAware behaves eagerly while the job queue is short and
	// defers retrievals while the host is busy — the overload protection
	// the paper credits the demand-driven design with.
	PullLoadAware
)

// String names the policy.
func (p PullPolicy) String() string {
	switch p {
	case PullEager:
		return "eager"
	case PullLazy:
		return "lazy"
	case PullLoadAware:
		return "load-aware"
	default:
		return fmt.Sprintf("pull-policy(%d)", int(p))
	}
}

// Config parametrizes a Server. The zero value is not valid; use Defaults.
type Config struct {
	// Name is the server's advertised host name.
	Name string
	// CacheCapacity bounds the shadow cache in bytes (<= 0: unbounded).
	CacheCapacity int64
	// CachePolicy selects the cache eviction policy.
	CachePolicy cache.Policy
	// Pull selects the update retrieval policy.
	Pull PullPolicy
	// LoadThreshold is the queued+running job count at which PullLoadAware
	// begins deferring retrievals.
	LoadThreshold int
	// MaxConcurrentJobs bounds simultaneous job execution.
	MaxConcurrentJobs int
	// Algorithm is the differencing algorithm for reverse shadow output.
	Algorithm diff.Algorithm
	// Compress enables compression of output transfers.
	Compress bool
	// Clock receives job CPU charges (the supercomputer's virtual clock
	// in simulations). Nil means no charging.
	Clock core.Clock
	// Logf, when set, receives one line per notable server event
	// (sessions, pulls, transfers, job transitions) — the operational
	// log a daemon writes. Nil disables logging.
	Logf func(format string, args ...any)
	// Obs, when set, records latency histograms (submit→ack,
	// pull→arrival, job queue→complete) and structured per-session
	// events. Nil keeps every instrumentation point down to one pointer
	// test with no allocation — hot paths stay as fast as before.
	Obs *obs.Observer
}

// Defaults returns a production-shaped configuration.
func Defaults(name string) Config {
	return Config{
		Name:              name,
		CacheCapacity:     0,
		CachePolicy:       cache.LRU,
		Pull:              PullEager,
		LoadThreshold:     4,
		MaxConcurrentJobs: 2,
		Algorithm:         diff.HuntMcIlroy,
		Compress:          false,
	}
}

// tableShards is the stripe count for the session and job tables.
const tableShards = 16

// sessionTable is a lock-striped map of live sessions with an atomic count.
type sessionTable struct {
	count  atomic.Int64
	shards [tableShards]struct {
		mu sync.RWMutex
		m  map[uint64]*session
	}
}

func (t *sessionTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]*session)
	}
}

func (t *sessionTable) add(ss *session) {
	sh := &t.shards[ss.id%tableShards]
	sh.mu.Lock()
	sh.m[ss.id] = ss
	sh.mu.Unlock()
	t.count.Add(1)
}

// remove reports whether the session was present (so the first of several
// racing drops does the owner-release work exactly once).
func (t *sessionTable) remove(id uint64) bool {
	sh := &t.shards[id%tableShards]
	sh.mu.Lock()
	_, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if ok {
		t.count.Add(-1)
	}
	return ok
}

func (t *sessionTable) len() int { return int(t.count.Load()) }

// snapshot returns the live sessions at one instant (shard by shard).
func (t *sessionTable) snapshot() []*session {
	out := make([]*session, 0, t.len())
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, ss := range sh.m {
			out = append(out, ss)
		}
		sh.mu.RUnlock()
	}
	return out
}

// jobTable is a lock-striped map of the live jobs: submitted, and not yet
// retired by the acknowledgement of their output (retire.go).
type jobTable struct {
	count  atomic.Int64
	shards [tableShards]struct {
		mu sync.RWMutex
		m  map[uint64]*job
	}
}

func (t *jobTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]*job)
	}
}

func (t *jobTable) add(j *job) {
	sh := &t.shards[j.id%tableShards]
	sh.mu.Lock()
	sh.m[j.id] = j
	sh.mu.Unlock()
	t.count.Add(1)
}

func (t *jobTable) remove(id uint64) {
	sh := &t.shards[id%tableShards]
	sh.mu.Lock()
	_, ok := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	if ok {
		t.count.Add(-1)
	}
}

func (t *jobTable) len() int { return int(t.count.Load()) }

func (t *jobTable) get(id uint64) (*job, bool) {
	sh := &t.shards[id%tableShards]
	sh.mu.RLock()
	j, ok := sh.m[id]
	sh.mu.RUnlock()
	return j, ok
}

// forEach visits every job (shard by shard, no global order).
func (t *jobTable) forEach(f func(*job)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, j := range sh.m {
			f(j)
		}
		sh.mu.RUnlock()
	}
}

// Server is one shadow server instance.
type Server struct {
	cfg      Config
	dir      *naming.Directory
	cache    *cache.Cache
	flights  *cache.Flights
	chunkFl  *chunkFlights
	pool     *jobs.Pool
	bufs     bufPool // recycled file buffers (filebuf.go)
	counters *metrics.Counters

	nextSession atomic.Uint64
	nextJob     atomic.Uint64
	sessions    sessionTable
	jobs        jobTable

	// waitMu guards waiters, the file-keyed index of jobs whose waiting
	// set references that file. feedWaitingJobs consults only the jobs
	// that actually want the arrived file — O(waiters), not O(all jobs).
	// Keyed by interned file id so the hot arrival path never builds a
	// string key.
	waitMu  sync.Mutex
	waiters map[naming.ShadowID][]*job

	// scriptMu guards scripts, the checksum-keyed cache of parsed job
	// scripts. Submissions repeat the same script across cycles (that is
	// what makes reverse shadow processing pay off), so each distinct
	// script is parsed once instead of once per submit. Entries carry the
	// script bytes to disarm checksum collisions.
	scriptMu sync.RWMutex
	scripts  map[uint32]*scriptEntry

	// deliverMu covers identity registration (hello) versus the
	// lookup-or-queue of finished outputs: an output completing
	// concurrently with a hello is either claimed by the hello or sees
	// the registered identity — never neither.
	deliverMu   sync.Mutex
	routed      map[string][]uint64   // client host -> undelivered routed job ids
	undelivered map[identity][]uint64 // owner -> outputs awaiting reconnection

	// tagMu guards submitTags, the per-identity idempotency map: client
	// tag -> job id. A client retrying a SUBMIT whose SUBMIT_OK was lost
	// sends the same tag and gets the already-created job back instead of
	// running it twice. The lock spans check+create+insert, so two racing
	// retries of one tag cannot both create a job. It also guards retired,
	// the ring of summaries of acknowledged jobs: a tag lives exactly as long
	// as its job or its job's summary, so the two change together.
	tagMu      sync.Mutex
	submitTags map[identity]map[uint64]uint64
	retired    retiredJobs

	// startMu lets Close exclude concurrent session registration without
	// putting a mutex on any per-message path.
	startMu sync.RWMutex
	closed  atomic.Bool

	pullsIssued    atomic.Int64
	pullsDeferred  atomic.Int64
	pullsCoalesced atomic.Int64

	// flightMu guards flightDumps, the bounded list of recent flight-
	// recorder dumps (/flightz). Dumps are rare — disconnects, faults, job
	// failures — so a plain mutex is fine here.
	flightMu    sync.Mutex
	flightDumps []FlightDump

	// Cluster peering (see peer.go; all empty outside a cluster): the
	// immutable cluster view installed by JoinCluster, the outbound
	// peer links (sessions in the dialing role) by member name, peer
	// requests parked on in-flight fetches, and the last client delta per
	// file kept for verbatim peer forwarding. The maps are initialized by
	// New — never nil while the server runs — so a stray peer frame on an
	// unclustered server can be refused without ever touching a nil map.
	clusterCfg  atomic.Pointer[clusterState]
	peerMu      sync.Mutex
	peerLinks   map[string]*session
	peerWaitMu  sync.Mutex
	peerWaiters map[naming.ShadowID][]peerWant
	deltaMu     sync.Mutex
	lastDeltas  map[naming.ShadowID]*storedDelta

	// heat counts per-file demand (notifies received, job inputs gathered,
	// peer requests served) for the ring-heat telemetry on /clusterz.
	heat *cluster.Heat

	wg sync.WaitGroup
}

// maxFlightDumps bounds the retained dump list; older dumps fall off.
const maxFlightDumps = 32

// FlightDump is one session's flight-recorder contents, captured when the
// session disconnected, its writer faulted, one of its jobs failed, or — on
// a peer link — a fetch fell back to the client path.
type FlightDump struct {
	// Session is the dumped session's id; User and Host its identity (empty
	// before HELLO).
	Session    uint64
	User, Host string
	// Reason says what triggered the dump.
	Reason string
	// At is the capture instant on the server's observer clock.
	At time.Duration
	// Events are the ring contents, oldest first.
	Events []trace.Event
}

// recordFlightDump snapshots a session's ring into the dump list.
func (s *Server) recordFlightDump(ss *session, reason string) {
	if ss.rec == nil {
		return
	}
	d := FlightDump{
		Session: ss.id,
		Reason:  reason,
		At:      s.cfg.Obs.Now(),
		Events:  ss.rec.Snapshot(),
	}
	s.deliverMu.Lock()
	d.User, d.Host = ss.user, ss.clientHost
	s.deliverMu.Unlock()
	s.flightMu.Lock()
	s.flightDumps = append(s.flightDumps, d)
	if len(s.flightDumps) > maxFlightDumps {
		s.flightDumps = s.flightDumps[len(s.flightDumps)-maxFlightDumps:]
	}
	s.flightMu.Unlock()
	s.logf("session %d: flight recorder dumped (%s, %d events)", ss.id, reason, len(d.Events))
}

// FlightDumps returns the retained dumps, oldest first.
func (s *Server) FlightDumps() []FlightDump {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	return append([]FlightDump(nil), s.flightDumps...)
}

// SessionFlight is one live session's current flight-recorder contents.
type SessionFlight struct {
	Session    uint64
	User, Host string
	Events     []trace.Event
}

// SessionFlights snapshots the flight recorders of every live session,
// sorted by session id (/flightz). Empty when tracing is off.
func (s *Server) SessionFlights() []SessionFlight {
	live := s.sessions.snapshot()
	out := make([]SessionFlight, 0, len(live))
	for _, ss := range live {
		if ss.rec == nil {
			continue
		}
		sf := SessionFlight{Session: ss.id, Events: ss.rec.Snapshot()}
		s.deliverMu.Lock()
		sf.User, sf.Host = ss.user, ss.clientHost
		s.deliverMu.Unlock()
		out = append(out, sf)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Session < out[b].Session })
	return out
}

// FlowStats reports how many update retrievals were issued and how many the
// pull policy postponed — the observable of the §5.2 flow-control design.
// Reads are atomic; they never contend with the dispatch path.
func (s *Server) FlowStats() (issued, deferred int64) {
	return s.pullsIssued.Load(), s.pullsDeferred.Load()
}

// logf emits one operational log line if logging is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// New creates a server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxConcurrentJobs < 1 {
		cfg.MaxConcurrentJobs = 1
	}
	if cfg.Algorithm == 0 {
		cfg.Algorithm = diff.HuntMcIlroy
	}
	if cfg.Clock == nil {
		cfg.Clock = core.NopClock{}
	}
	s := &Server{
		cfg:         cfg,
		dir:         naming.NewDirectory(),
		cache:       cache.New(cfg.CacheCapacity, cfg.CachePolicy),
		flights:     cache.NewFlights(),
		chunkFl:     newChunkFlights(),
		pool:        jobs.NewPool(cfg.MaxConcurrentJobs),
		counters:    &metrics.Counters{},
		waiters:     make(map[naming.ShadowID][]*job),
		scripts:     make(map[uint32]*scriptEntry),
		routed:      make(map[string][]uint64),
		undelivered: make(map[identity][]uint64),
		submitTags:  make(map[identity]map[uint64]uint64),
		peerLinks:   make(map[string]*session),
		peerWaiters: make(map[naming.ShadowID][]peerWant),
		lastDeltas:  make(map[naming.ShadowID]*storedDelta),
		heat:        cluster.NewHeat(),
	}
	s.sessions.init()
	s.jobs.init()
	return s
}

// Name returns the server's advertised name.
func (s *Server) Name() string { return s.cfg.Name }

// Cache exposes the shadow cache (read-mostly: stats, test injection of
// evictions — the paper's "remote machine ran out of disk space" scenario).
func (s *Server) Cache() *cache.Cache { return s.cache }

// Directory exposes the per-domain name directory.
func (s *Server) Directory() *naming.Directory { return s.dir }

// Metrics returns the server's transfer counters plus the cache and
// flow-control observables for the same run.
func (s *Server) Metrics() metrics.Snapshot {
	snap := s.counters.Snapshot()
	cs := s.cache.Stats()
	snap.CacheHits = cs.Hits
	snap.CacheMisses = cs.Misses
	snap.CacheEvictions = cs.Evictions
	snap.CacheRejected = cs.Rejected
	snap.PullsIssued = s.pullsIssued.Load()
	snap.PullsDeferred = s.pullsDeferred.Load()
	snap.PullsCoalesced = s.pullsCoalesced.Load()
	snap.FileTouches = s.heat.Total()
	return snap
}

// HeatEntry is one hot file resolved for display: its reference key, the
// ring member that owns it ("self"'s name when unclustered) and the demand
// it has accumulated.
type HeatEntry struct {
	File    string
	Owner   string
	Touches int64
}

// HeatStats summarizes the server's file-demand accounting for the admin
// ring-heat view.
type HeatStats struct {
	// Touches is the total demand recorded across all files.
	Touches int64
	// Top lists the n hottest files, most-touched first.
	Top []HeatEntry
	// OwnerLoads maps each ring member to the demand landing on files it
	// owns — as seen from this instance.
	OwnerLoads map[string]int64
	// Imbalance is max over mean of OwnerLoads (1.0 = perfectly even,
	// 0 = no demand).
	Imbalance float64
}

// HeatStats resolves the heat tracker's id-keyed counts into names and ring
// owners (render time only — the touch path never builds a string). n bounds
// the hot-file list; owner loads and imbalance always cover every file.
func (s *Server) HeatStats(n int) HeatStats {
	cs := s.clusterCfg.Load()
	owner := func(key string) string {
		if cs != nil {
			return cs.ring.Owner(key)
		}
		return s.cfg.Name
	}
	all := s.heat.Top(0)
	hs := HeatStats{Touches: s.heat.Total(), OwnerLoads: make(map[string]int64)}
	for _, fh := range all {
		ref, ok := s.dir.RefOf(naming.ShadowID(fh.ID))
		if !ok {
			continue
		}
		key := ref.String()
		own := owner(key)
		hs.OwnerLoads[own] += fh.Touches
		if n <= 0 || len(hs.Top) < n {
			hs.Top = append(hs.Top, HeatEntry{File: key, Owner: own, Touches: fh.Touches})
		}
	}
	hs.Imbalance = cluster.Imbalance(hs.OwnerLoads)
	return hs
}

// Load returns the job queue length and running count.
func (s *Server) Load() (queued, running int) { return s.pool.Load() }

// SessionCount returns the number of live sessions from an atomic counter.
func (s *Server) SessionCount() int { return s.sessions.len() }

// Observer returns the server's observability configuration (nil when
// Config.Obs was not set) — the admin endpoint renders its histograms.
func (s *Server) Observer() *obs.Observer { return s.cfg.Obs }

// SessionInfo is one live session's admin-visible state (/sessionz).
type SessionInfo struct {
	// ID is the server-assigned session id.
	ID uint64
	// User, ClientHost and Domain identify the client (empty until its
	// HELLO arrives).
	User, ClientHost, Domain string
	// PullsInFlight counts file retrievals this session has issued whose
	// content has not arrived yet.
	PullsInFlight int
	// DeferredNotifies counts notifies whose pulls the pull policy
	// postponed.
	DeferredNotifies int
	// QueuedWrites is the depth of the session's outbound pipeline.
	QueuedWrites int
}

// Sessions returns a point-in-time view of every attached session, sorted
// by id. Identity fields are read under the same lock the hello handler
// writes them under, so a concurrent registration is seen whole or not at
// all.
func (s *Server) Sessions() []SessionInfo {
	live := s.sessions.snapshot()
	out := make([]SessionInfo, 0, len(live))
	for _, ss := range live {
		info := SessionInfo{ID: ss.id, QueuedWrites: len(ss.out)}
		s.deliverMu.Lock()
		info.User, info.ClientHost, info.Domain = ss.user, ss.clientHost, ss.domain
		s.deliverMu.Unlock()
		ss.mu.Lock()
		info.PullsInFlight = len(ss.pulled)
		info.DeferredNotifies = len(ss.deferred)
		ss.mu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// InFlightFetches reports how many coalesced file retrievals are currently
// outstanding across all sessions.
func (s *Server) InFlightFetches() int { return s.flights.Len() }

// Acceptor yields inbound protocol connections; it abstracts the transport
// (netsim listener, TCP listener).
type Acceptor interface {
	Accept() (wire.Conn, error)
}

// AcceptorFunc adapts a function to Acceptor.
type AcceptorFunc func() (wire.Conn, error)

// Accept implements Acceptor.
func (f AcceptorFunc) Accept() (wire.Conn, error) { return f() }

// Serve accepts and serves connections until the acceptor fails (listener
// closed) or the server is closed. It blocks; run it in a goroutine.
func (s *Server) Serve(a Acceptor) error {
	for {
		conn, err := a.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		if s.startSession(conn, nil) == nil {
			_ = conn.Close()
			return nil
		}
	}
}

// ServeConn serves a single pre-established connection (in-process setups);
// it returns when the session ends.
func (s *Server) ServeConn(conn wire.Conn) {
	if s.startSession(conn, nil) == nil {
		_ = conn.Close()
		return
	}
	// startSession spawned the handler; nothing else to do. The method
	// exists so callers don't depend on session internals.
}

// startSession registers a session on conn and starts its loops, or returns
// nil when the server is closing. link is nil for an accepted connection;
// for one this server dialed (peerLinkTo, handshake already done) it makes
// the session a link, identified as user "peer" at the member's name.
func (s *Server) startSession(conn wire.Conn, link *peerLink) *session {
	s.startMu.RLock()
	defer s.startMu.RUnlock()
	if s.closed.Load() {
		return nil
	}
	sess := newSession(s, conn, s.nextSession.Add(1))
	if link != nil {
		sess.link = link
		sess.user, sess.domain, sess.clientHost = "peer", "cluster", link.member
	}
	s.sessions.add(sess)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sess.run()
		s.logf("session %d: closed", sess.id)
	}()
	return sess
}

// dropSession unregisters a session — a client's, a peer's or a link — and
// re-homes any file retrievals it owned: pulls that coalesced behind this
// session's fetches would otherwise wait forever on a dead connection.
//
// It is called when the session's receive loop ends, and earlier by a
// delivery that found the session's writer dead (deliverOrHold, sendHeld).
// The receive loop may then still be inside a handler — a NOTIFY or SUBMIT
// read before the connection closed — that registers a fetch on the session
// after that first call has swept its flights; the send fails, the loop ends,
// and its own dropSession is the only thing that will ever release that
// flight. So the sweep runs on every call, the unregistering on the first.
func (s *Server) dropSession(sess *session) {
	first := s.sessions.remove(sess.id)
	s.purgePeerWaiters(sess)
	pending := s.flights.ReleaseOwner(sess.id)
	if first && sess.link != nil {
		s.dropLink(sess)
		for range pending {
			s.counters.AddRingRebalance()
		}
		s.logf("peer %s: link down; re-homing %d fetches", sess.link.member, len(pending))
	}
	if len(pending) > 0 {
		s.repullPending(sess.id, pending)
	}
}

func (s *Server) isClosed() bool { return s.closed.Load() }

// Close stops the server: no new sessions, pipelined writers drain and
// flush, queued jobs drain, open sessions are disconnected.
func (s *Server) Close() {
	s.startMu.Lock()
	already := s.closed.Swap(true)
	s.startMu.Unlock()
	if already {
		return
	}
	for _, sess := range s.sessions.snapshot() {
		sess.shutdownWriter() // drain + flush pending writes, then close
	}
	s.wg.Wait()
	s.pool.Close()
}

// scriptEntry is one cached parse of a job script.
type scriptEntry struct {
	script []byte // the exact bytes parsed, to verify on checksum collision
	cmds   []jobs.Command
	names  []string // input names the commands reference
}

// parsedScript returns the parsed commands and referenced input names for
// script, from the checksum-keyed cache when the same bytes were parsed
// before. Colliding checksums (different bytes, same sum) fall through to a
// fresh parse and leave the cache entry alone.
func (s *Server) parsedScript(sum uint32, script []byte) ([]jobs.Command, []string, error) {
	s.scriptMu.RLock()
	e := s.scripts[sum]
	s.scriptMu.RUnlock()
	if e != nil && string(e.script) == string(script) {
		return e.cmds, e.names, nil
	}
	cmds, err := jobs.ParseScript(script)
	if err != nil {
		return nil, nil, err
	}
	names := jobs.InputNames(cmds)
	if e == nil {
		s.scriptMu.Lock()
		if _, ok := s.scripts[sum]; !ok {
			s.scripts[sum] = &scriptEntry{
				script: append([]byte(nil), script...),
				cmds:   cmds,
				names:  names,
			}
		}
		s.scriptMu.Unlock()
	}
	return cmds, names, nil
}

// identity names a client across sessions: a user at a workstation. Jobs
// belong to identities, not connections, so a client that reconnects after
// a network failure finds its jobs and receives outputs that completed
// while it was away.
type identity struct {
	user string
	host string
}

// job is one submitted batch job. It lives in the job table from SUBMIT
// until its output is acknowledged (retire.go); what it holds shrinks as the
// protocol stops needing it — the inputs go back to the buffer pool when the
// run ends, the session pointer with them.
type job struct {
	id    uint64
	owner identity
	// tag is the submission's idempotency tag (0 = untagged); it goes into
	// the job's summary so the tag map entry can leave with it.
	tag  uint64
	sess *session
	// tc is the trace context of the cycle that submitted the job; every
	// job-side span and the output delivery hang off it. Immutable after
	// creation.
	tc wire.TraceContext

	script []byte
	// cmds is the parsed form of script, shared with the server's script
	// cache. Immutable after creation.
	cmds      []jobs.Command
	scriptSum uint32
	inputs    []wire.JobInput

	routeHost       string
	wantOutputDelta bool

	mu     sync.Mutex
	state  wire.JobState
	detail string
	// ins is the gathering state of inputs, index for index. Nearly every
	// job has one or two inputs, which insArr holds without an allocation.
	ins    []jobInput
	insArr [2]jobInput
	result jobs.Result
	// queuedAt stamps when the job became runnable (inputs all in hand),
	// feeding the queue→complete histogram. Stamped at most once, and only
	// when observability is on.
	queuedAt      time.Duration
	queuedStamped bool
	// gathered is set once a submit handler has walked every input —
	// registering waits, issuing pulls. Until then the job is recoverable
	// only by a retried submit re-driving gatherInputs.
	gathered bool
	// waitSpan is the open server.job-wait span, created when the job
	// becomes runnable and finished when a processor picks it up.
	waitSpan *trace.Span
	// retired is set by the acknowledgement that takes the job out of the
	// table: its result is gone, and a delivery racing the ack has nothing
	// left to send.
	retired bool
}

// jobInput is where one input of a job stands: not looked at yet, waiting
// for a version to arrive, or in hand.
type jobInput struct {
	id naming.ShadowID
	// waiting marks an input registered in the server's waiters index; want
	// is the version that satisfies it.
	waiting bool
	want    uint64
	// buf is the content the job will run on, on loan until the run ends.
	buf *fileBuf
}

func (j *job) setState(state wire.JobState, detail string) {
	j.mu.Lock()
	j.state = state
	j.detail = detail
	j.mu.Unlock()
}

// waitsFor reports the version j still needs of file id, if it waits for it.
// Caller holds j.mu.
func (j *job) waitsFor(id naming.ShadowID) (uint64, bool) {
	for i := range j.ins {
		if in := &j.ins[i]; in.id == id && in.waiting {
			return in.want, true
		}
	}
	return 0, false
}

// releaseInputs hands the job's input buffers back. Caller holds j.mu.
func (j *job) releaseInputs() {
	for i := range j.ins {
		if fb := j.ins[i].buf; fb != nil {
			j.ins[i].buf = nil
			fb.release()
		}
	}
}

// terminalDetail renders a finished job's status text from what a summary
// keeps of it. runJob leaves detail empty and status renders it on demand:
// status queries are rare, finished jobs are the hot path.
func terminalDetail(exit int32, outBytes int) string {
	if exit != 0 {
		return fmt.Sprintf("exit %d (errors), %d output bytes", exit, outBytes)
	}
	return fmt.Sprintf("exit %d, %d output bytes", exit, outBytes)
}

func (j *job) status() wire.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	detail := j.detail
	if detail == "" && j.state.Terminal() {
		detail = terminalDetail(j.result.ExitCode, len(j.result.Stdout))
	}
	return wire.JobStatus{Job: j.id, State: j.state, Detail: detail}
}

var errSessionGone = errors.New("server: session gone")

// lookupJob fetches a job by id.
func (s *Server) lookupJob(id uint64) (*job, bool) {
	return s.jobs.get(id)
}

// jobsOfOwner returns the live jobs an identity submitted (across sessions),
// ascending by id.
func (s *Server) jobsOfOwner(owner identity) []*job {
	var out []*job
	s.jobs.forEach(func(j *job) {
		if j.owner == owner {
			out = append(out, j)
		}
	})
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// unackedDone returns the owner's finished, unrouted jobs whose output was
// never acknowledged (an acknowledged job has left the table), excluding ids
// already scheduled for delivery. A
// re-attaching client gets these re-sent: the output (or its ack) may have
// died with the previous connection, and the server cannot tell which. The
// client deduplicates, so a redundant re-send costs bytes, never correctness.
func (s *Server) unackedDone(owner identity, exclude []uint64) []uint64 {
	skip := make(map[uint64]bool, len(exclude))
	for _, id := range exclude {
		skip[id] = true
	}
	var out []uint64
	for _, j := range s.jobsOfOwner(owner) {
		if j.routeHost != "" || skip[j.id] {
			continue
		}
		j.mu.Lock()
		resend := j.state.Terminal() && !j.retired
		j.mu.Unlock()
		if resend {
			out = append(out, j.id)
		}
	}
	return out
}
