// Package shadow is a distributed service for supercomputer access by
// shadow editing, reproducing Comer, Griffioen & Yavatkar (Purdue
// CSD-TR-722, 1987; ICDCS 1988).
//
// A shadow client runs at each workstation and a shadow server at each
// supercomputer site. Files submitted with batch jobs are cached ("shadow
// files") at the remote site; after each editing session the client
// notifies the server, which pulls just the *differences* between the
// cached version and the new one — so the repeated edit–submit–fetch cycle
// of scientific computing moves kilobytes instead of re-shipping whole
// files over slow long-haul links.
//
// The package exposes two deployment styles:
//
//   - Cluster: an in-process simulated deployment over a virtual-clock
//     network (internal/netsim) whose links reproduce the paper's 9600 bps
//     Cypress and 56 kbps ARPANET lines. All experiments, examples and
//     integration tests run on it; virtual seconds match what the real
//     lines would take while wall-clock time stays in microseconds.
//
//   - ServeTCP/DialTCP: the same protocol over real TCP connections, for
//     the cmd/shadowd and cmd/shadow binaries.
//
// Quickstart:
//
//	cluster, _ := shadow.NewCluster(shadow.ClusterConfig{Link: shadow.ARPANET})
//	defer cluster.Close()
//	ws := cluster.NewWorkstation("sun3")
//	ctx := context.Background()
//	c, _ := ws.Connect(ctx, "comer")
//	ws.WriteFile("/u/comer/run.job", []byte("wc heat.f\n"))
//	ws.WriteFile("/u/comer/heat.f", heatSource)
//	job, _ := c.Submit(ctx, "/u/comer/run.job", []string{"/u/comer/heat.f"}, shadow.SubmitOptions{})
//	rec, _ := c.Wait(ctx, job)
//	fmt.Printf("%s", rec.Stdout)
//
// Every blocking client call takes a context and honors its deadline or
// cancellation. Sessions opened with SessionConfig.AutoReconnect survive
// connection loss: the client re-dials with backoff, resumes the session
// (the server holds undelivered output for it), and retries interrupted
// requests idempotently. Failures surface through a typed taxonomy —
// ErrDisconnected, ErrRetriesExhausted, ErrDeadlineExceeded, ErrBaseEvicted
// — all matchable with errors.Is.
package shadow

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"shadowedit/internal/cache"
	"shadowedit/internal/client"
	"shadowedit/internal/diff"
	"shadowedit/internal/editor"
	"shadowedit/internal/env"
	"shadowedit/internal/metrics"
	"shadowedit/internal/naming"
	"shadowedit/internal/netsim"
	"shadowedit/internal/obs"
	"shadowedit/internal/rje"
	"shadowedit/internal/server"
	"shadowedit/internal/vcs"
	"shadowedit/internal/wire"
)

// Re-exported core types: these are the package's public API surface; the
// internal packages they alias are implementation layout, not contract.
type (
	// Client is a workstation's connection to one shadow server.
	Client = client.Client
	// ClientConfig parametrizes Connect.
	ClientConfig = client.Config
	// SubmitOptions are the optional submit arguments (§6.2).
	SubmitOptions = client.SubmitOptions
	// Workspace is a tree-level handle on a directory: Sync reconciles it
	// with the server in O(difference) messages, Submit
	// resolves job paths relative to the root. Obtain one with
	// Client.Workspace.
	Workspace = client.Workspace
	// SyncStats summarizes one Workspace.Sync call.
	SyncStats = client.SyncStats
	// SyncMode names the reconciliation strategy a Sync used.
	SyncMode = client.SyncMode
	// NotifyResult reports a commit-and-notify's outcome: file reference,
	// new version, bytes on the wire (0 = unchanged, nothing sent).
	NotifyResult = client.NotifyResult
	// ClusterClient is a workstation's routed connection to every member of
	// a shadow-cache cluster; obtain one with
	// Workstation.ConnectCluster.
	ClusterClient = client.ClusterClient
	// ClusterMember names one shadow-cache cluster instance and how to
	// dial it (for standalone ConnectCluster deployments).
	ClusterMember = client.ClusterMember
	// ClusterJob identifies a job within a shadow-cache cluster.
	ClusterJob = client.ClusterJob
	// ServerClusterSpec parametrizes Server.JoinCluster for standalone
	// deployments; the simulated Cluster's EnablePeering builds it itself.
	ServerClusterSpec = server.ClusterSpec
	// RetryPolicy shapes the client's reconnection and retry backoff.
	RetryPolicy = client.RetryPolicy
	// Server is a shadow server instance.
	Server = server.Server
	// ServerConfig parametrizes a Server.
	ServerConfig = server.Config
	// PullPolicy selects the server's demand-driven retrieval timing.
	PullPolicy = server.PullPolicy
	// Environment is a user's shadow environment (customization record).
	Environment = env.Environment
	// JobRecord is the client-side record of a submitted job.
	JobRecord = env.JobRecord
	// JobState is a job's lifecycle state.
	JobState = wire.JobState
	// FileRef is a globally unique (domain id, file id) file name.
	FileRef = wire.FileRef
	// LinkSpec describes a network link (speed, latency, overhead).
	LinkSpec = netsim.Spec
	// FaultSpec injects seeded, deterministic faults (frame drops, latency
	// spikes, link flaps) into a link, via Cluster.Network.LinkBetween and
	// Link.SetFaults. The zero value injects nothing.
	FaultSpec = netsim.FaultSpec
	// Editor is a conventional editor wrapped by the shadow editor.
	Editor = editor.Editor
	// EditorFunc adapts a function to Editor.
	EditorFunc = editor.Func
	// ShadowEditor wraps an Editor with the shadow postprocessor.
	ShadowEditor = editor.Shadow
	// RJEClient is the conventional full-transfer baseline client.
	RJEClient = rje.Client
	// Universe is a naming domain: hosts, mounts, symlinks and files.
	Universe = naming.Universe
	// TildeSpace is a user's personal tilde-tree bindings (§5.3).
	TildeSpace = naming.TildeSpace
	// VersionStore is the client-side version store (§6.3.2); save it
	// with its Save method and restore with LoadVersionStore.
	VersionStore = vcs.Store
	// JobDB is the client-side job database; save it with its Save
	// method and restore with LoadJobDB.
	JobDB = env.JobDB
	// MetricsSnapshot is a point-in-time view of transfer counters.
	MetricsSnapshot = metrics.Snapshot
	// Algorithm selects a differencing algorithm.
	Algorithm = diff.Algorithm
	// CachePolicy selects the shadow cache's eviction policy.
	CachePolicy = cache.Policy
)

// Link specs matching the paper's evaluation networks.
var (
	// Cypress is the 9600 baud Cypress network of Figure 1.
	Cypress = netsim.Cypress
	// ARPANET is the 56 kbps ARPANET path of Figures 2 and 3.
	ARPANET = netsim.ARPANET
	// LAN is a fast local network for tests.
	LAN = netsim.LAN
)

// Differencing algorithms.
const (
	// HuntMcIlroy is the paper prototype's algorithm (UNIX diff).
	HuntMcIlroy = diff.HuntMcIlroy
	// Myers is the Miller–Myers alternative (§8.3).
	Myers = diff.Myers
	// TichyBlockMove is Tichy's block-move alternative (§8.3).
	TichyBlockMove = diff.TichyBlockMove
)

// Pull policies.
const (
	// PullEager retrieves updates as soon as a notify arrives.
	PullEager = server.PullEager
	// PullLazy retrieves updates only when a job needs them.
	PullLazy = server.PullLazy
	// PullLoadAware defers retrievals while the host is busy.
	PullLoadAware = server.PullLoadAware
)

// Cache policies.
const (
	// CacheLRU evicts least-recently-used entries first.
	CacheLRU = cache.LRU
	// CacheLargestFirst evicts the biggest entries first.
	CacheLargestFirst = cache.LargestFirst
)

// Workspace sync modes.
const (
	// SyncTree is Merkle-tree reconciliation.
	SyncTree = client.SyncTree
	// SyncPerFile is the classic one-notify-per-file fallback.
	SyncPerFile = client.SyncPerFile
)

// The client's typed error taxonomy, re-exported for errors.Is matching.
var (
	// ErrDisconnected reports an operation that failed because the
	// connection to the server was lost (and, without auto-reconnect,
	// cannot come back).
	ErrDisconnected = client.ErrDisconnected
	// ErrRetriesExhausted reports that reconnection or request retries
	// gave up after the configured number of attempts.
	ErrRetriesExhausted = client.ErrRetriesExhausted
	// ErrDeadlineExceeded reports a per-RPC or caller deadline expiry;
	// matching errors also satisfy errors.Is(err, context.DeadlineExceeded).
	ErrDeadlineExceeded = client.ErrDeadlineExceeded
	// ErrBaseEvicted reports a delta whose base version is gone when the
	// full-transfer fallback could not be arranged either.
	ErrBaseEvicted = client.ErrBaseEvicted
)

// DefaultEnvironment returns the automatic per-user customization record.
func DefaultEnvironment(user string) Environment { return env.Default(user) }

// DefaultServerConfig returns a production-shaped server configuration.
func DefaultServerConfig(name string) ServerConfig { return server.Defaults(name) }

// NewServer creates a standalone shadow server (for real deployments; the
// simulated Cluster creates its own).
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// NewUniverse creates a naming domain for standalone clients.
func NewUniverse(domain string) *Universe { return naming.NewUniverse(domain) }

// ParseAlgorithm maps an algorithm name ("hunt-mcilroy", "myers", "tichy"
// and their aliases) to its identifier.
func ParseAlgorithm(name string) (Algorithm, error) { return env.ParseAlgorithm(name) }

// LoadVersionStore restores a version store serialized with
// (*VersionStore).Save, applying the given retention limit from now on.
func LoadVersionStore(r io.Reader, retain int) (*VersionStore, error) {
	return vcs.Load(r, retain)
}

// LoadJobDB restores a job database serialized with (*JobDB).Save.
func LoadJobDB(r io.Reader) (*JobDB, error) { return env.LoadJobDB(r) }

// EdScriptEditor returns an Editor that applies a classic ed script — the
// editing dialect the paper's prototype was built around.
func EdScriptEditor(script string) Editor { return editor.EdScript(script) }

// AppendEditor returns an Editor that appends text.
func AppendEditor(text string) Editor { return editor.Append(text) }

// ClusterConfig parametrizes an in-process simulated deployment.
type ClusterConfig struct {
	// Domain is the naming domain id; defaults to "nfs.sim".
	Domain string
	// ServerName is the supercomputer's host name; defaults to "super".
	ServerName string
	// Link is the spec used for workstation links; defaults to ARPANET.
	Link LinkSpec
	// Server overrides the server configuration; zero means
	// DefaultServerConfig(ServerName) with the cluster clock attached.
	Server *ServerConfig
}

// Cluster is an in-process deployment: one or more shadow servers on
// simulated supercomputer hosts, plus any number of workstations, all
// sharing a naming universe (one NFS domain) and a virtual-clock network.
// "Multiple clients can have connections open to a server simultaneously,
// and a client can have simultaneous connections to multiple servers"
// (§6.1).
type Cluster struct {
	Network  *netsim.Network
	Universe *Universe

	link LinkSpec

	mu           sync.Mutex
	servers      map[string]*serverEntry
	defaultName  string
	workstations []*Workstation
	closed       bool
}

type serverEntry struct {
	srv      *Server
	host     *netsim.Host
	listener *netsim.Listener
}

// ServerPort is the port every simulated shadow server listens on. A caller
// that hands the client its own transport (a counting or reordering
// wire.Conn) dials it with Workstation.Host().Dial(server, ServerPort).
const ServerPort = 517

// NewCluster builds and starts a simulated deployment with one server.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Domain == "" {
		cfg.Domain = "nfs.sim"
	}
	if cfg.ServerName == "" {
		cfg.ServerName = "super"
	}
	if cfg.Link.BitsPerSecond == 0 {
		cfg.Link = ARPANET
	}
	c := &Cluster{
		Network:     netsim.New(),
		Universe:    naming.NewUniverse(cfg.Domain),
		link:        cfg.Link,
		servers:     make(map[string]*serverEntry),
		defaultName: cfg.ServerName,
	}
	var scfg ServerConfig
	if cfg.Server != nil {
		scfg = *cfg.Server
	} else {
		scfg = DefaultServerConfig(cfg.ServerName)
	}
	if _, err := c.AddServer(cfg.ServerName, scfg); err != nil {
		return nil, err
	}
	return c, nil
}

// AddServer starts another shadow server in the cluster (a second
// supercomputer site). Existing workstations are linked to it.
func (c *Cluster) AddServer(name string, scfg ServerConfig) (*Server, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if _, dup := c.servers[name]; dup {
		return nil, fmt.Errorf("shadow: server %q already exists", name)
	}
	host := c.Network.Host(name)
	if scfg.Name == "" {
		scfg.Name = name
	}
	if scfg.Clock == nil {
		scfg.Clock = host
	}
	srv := server.New(scfg)
	lst, err := host.Listen(ServerPort)
	if err != nil {
		return nil, fmt.Errorf("shadow: %w", err)
	}
	go func() {
		_ = srv.Serve(server.AcceptorFunc(func() (wire.Conn, error) {
			return lst.Accept()
		}))
	}()
	c.servers[name] = &serverEntry{srv: srv, host: host, listener: lst}
	for _, ws := range c.workstations {
		c.Network.Connect(ws.host, host, c.link)
	}
	return srv, nil
}

// EnablePeering joins the named servers (all of them, when none are named)
// into one shadow-cache cluster: server hosts are connected pairwise with
// link (zero value: LAN, the realistic topology — instances of one site
// share a machine room even when clients reach them over long-haul lines),
// and each instance joins the placement ring under its host name. Call it
// after the servers exist and before clients connect; clients reach the
// cluster with Workstation.ConnectCluster naming the same members.
func (c *Cluster) EnablePeering(link LinkSpec, names ...string) error {
	if link.BitsPerSecond == 0 {
		link = LAN
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if len(names) == 0 {
		for name := range c.servers {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	entries := make([]*serverEntry, len(names))
	for i, name := range names {
		e, ok := c.servers[name]
		if !ok {
			return fmt.Errorf("shadow: no server %q", name)
		}
		entries[i] = e
	}
	for i := range entries {
		for j := i + 1; j < len(entries); j++ {
			c.Network.Connect(entries[i].host, entries[j].host, link)
		}
	}
	members := append([]string(nil), names...)
	for i, name := range names {
		host := entries[i].host
		entries[i].srv.JoinCluster(server.ClusterSpec{
			Instance: name,
			Members:  members,
			Dial: func(member string) (wire.Conn, error) {
				return host.Dial(member, ServerPort)
			},
		})
	}
	return nil
}

// Server returns the cluster's default shadow server.
func (c *Cluster) Server() *Server { return c.ServerNamed(c.defaultName) }

// ServerNamed returns a server by host name (nil if absent).
func (c *Cluster) ServerNamed(name string) *Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.servers[name]
	if !ok {
		return nil
	}
	return e.srv
}

// ServerHost returns the default supercomputer's simulated host (its
// virtual clock).
func (c *Cluster) ServerHost() *netsim.Host {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[c.defaultName].host
}

// StopServer shuts one server down — listener and all sessions — for
// failover experiments. The simulated host and its links remain, so dials
// to it fail fast with connection-refused rather than no-route.
func (c *Cluster) StopServer(name string) error {
	c.mu.Lock()
	e, ok := c.servers[name]
	if ok {
		delete(c.servers, name)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("shadow: no server %q", name)
	}
	_ = e.listener.Close()
	e.srv.Close()
	return nil
}

// Close shuts the deployment down.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	entries := make([]*serverEntry, 0, len(c.servers))
	for _, e := range c.servers {
		entries = append(entries, e)
	}
	c.mu.Unlock()
	for _, e := range entries {
		_ = e.listener.Close()
		e.srv.Close()
	}
}

// NewWorkstation adds a workstation linked to every server with the
// cluster's link spec, and registers it in the naming universe.
func (c *Cluster) NewWorkstation(name string) *Workstation {
	return c.NewWorkstationLink(name, c.link)
}

// NewWorkstationCapillary adds a workstation that reaches the cluster's
// servers through a gateway: a (typically slow) last-mile link to the
// gateway and a backbone link from the gateway to every server. This is the
// paper's deployment picture — "Cypress ... is suitable for setting up
// capillary connections from user sites to the NSFnet backbone" — and every
// message pays store-and-forward costs on both hops.
func (c *Cluster) NewWorkstationCapillary(name, gateway string, lastMile, backbone LinkSpec) *Workstation {
	host := c.Network.Host(name)
	gw := c.Network.Host(gateway)
	c.Universe.AddHost(name)
	c.Network.Connect(host, gw, lastMile)
	ws := &Workstation{cluster: c, name: name, host: host}
	c.mu.Lock()
	for _, e := range c.servers {
		c.Network.Connect(gw, e.host, backbone)
	}
	c.workstations = append(c.workstations, ws)
	c.mu.Unlock()
	return ws
}

// NewWorkstationLink adds a workstation with a custom link spec.
func (c *Cluster) NewWorkstationLink(name string, link LinkSpec) *Workstation {
	host := c.Network.Host(name)
	c.Universe.AddHost(name)
	ws := &Workstation{cluster: c, name: name, host: host}
	c.mu.Lock()
	for _, e := range c.servers {
		c.Network.Connect(host, e.host, link)
	}
	c.workstations = append(c.workstations, ws)
	c.mu.Unlock()
	return ws
}

// Workstation is one user machine in a cluster.
type Workstation struct {
	cluster *Cluster
	name    string
	host    *netsim.Host
}

// Name returns the workstation's host name.
func (w *Workstation) Name() string { return w.name }

// Host returns the simulated host (its virtual clock).
func (w *Workstation) Host() *netsim.Host { return w.host }

// WriteFile stores a local file (absolute path).
func (w *Workstation) WriteFile(path string, content []byte) error {
	return w.cluster.Universe.WriteFile(w.name, path, content)
}

// ReadFile reads a local file (absolute path).
func (w *Workstation) ReadFile(path string) ([]byte, error) {
	return w.cluster.Universe.ReadFile(w.name, path)
}

// FS returns the workstation's file-system model for mounts and symlinks.
func (w *Workstation) FS() *naming.FS {
	fs, _ := w.cluster.Universe.Host(w.name)
	return fs
}

// Connect opens a shadow session to the default server with the default
// environment for user. It is shorthand for
// ConnectSession(ctx, SessionConfig{Env: DefaultEnvironment(user)});
// every knob beyond the user name lives on SessionConfig.
func (w *Workstation) Connect(ctx context.Context, user string) (*Client, error) {
	return w.ConnectSession(ctx, SessionConfig{Env: DefaultEnvironment(user)})
}

// SessionConfig customizes a workstation session.
type SessionConfig struct {
	// Server names the supercomputer; empty falls back to the
	// environment's DefaultHost, then the cluster default.
	Server string
	// Env is the user's shadow environment.
	Env Environment
	// Tilde optionally supplies the user's tilde-tree bindings.
	Tilde *TildeSpace
	// Store optionally seeds the version store (restored with
	// LoadVersionStore after a restart) so retained versions survive
	// client restarts.
	Store *VersionStore
	// Jobs optionally seeds the job database (restored with LoadJobDB)
	// so job records survive client restarts.
	Jobs *JobDB
	// Obs, when set, gives the client an observer: cycle latency lands in
	// its histogram and, when its tracer is set, the client mints the
	// cycle traces that sessions — and, in a cluster, peer fetches on
	// other members — attach their spans to.
	Obs *obs.Observer

	// AutoReconnect makes the session fault tolerant: a lost connection
	// is re-dialed with backoff (advancing the workstation's virtual
	// clock, so backoff outlasts simulated outages), the session resumed,
	// and interrupted requests retried idempotently.
	AutoReconnect bool
	// Retry shapes the reconnect/retry backoff when AutoReconnect is on;
	// zero-value fields take the client's documented defaults.
	Retry RetryPolicy
	// RPCTimeout bounds each attempt of a synchronous round trip when
	// AutoReconnect is on; zero disables per-attempt deadlines.
	RPCTimeout time.Duration
}

// ConnectSession opens a fully customized shadow session.
func (w *Workstation) ConnectSession(ctx context.Context, cfg SessionConfig) (*Client, error) {
	serverName := cfg.Server
	if serverName == "" {
		serverName = cfg.Env.DefaultHost
	}
	if serverName == "" {
		serverName = w.cluster.defaultName
	}
	conn, err := w.host.Dial(serverName, ServerPort)
	if err != nil {
		return nil, fmt.Errorf("shadow: dial: %w", err)
	}
	ccfg := client.Config{
		User:     cfg.Env.User,
		Universe: w.cluster.Universe,
		Host:     w.name,
		Env:      cfg.Env,
		Tilde:    cfg.Tilde,
		Store:    cfg.Store,
		Jobs:     cfg.Jobs,
		Clock:    w.host,
		Obs:      cfg.Obs,
	}
	if cfg.AutoReconnect {
		ccfg.Dial = func() (wire.Conn, error) {
			return w.host.Dial(serverName, ServerPort)
		}
		// Backoff advances the workstation's virtual clock: in simulated
		// time the client genuinely waits, which is what lets it outlast
		// a link-flap window.
		ccfg.Sleep = func(ctx context.Context, d time.Duration) error {
			w.host.Process(d)
			return ctx.Err()
		}
		ccfg.Retry = cfg.Retry
		ccfg.RPCTimeout = cfg.RPCTimeout
	}
	cl, err := client.Connect(ctx, conn, ccfg)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return cl, nil
}

// ConnectCluster opens a routed session to a shadow-cache cluster: one
// connection per named member, all sharing a version store and job
// database, with each file's traffic routed to its placement-ring owner.
// The member names must match the server names passed to EnablePeering or
// placement disagrees. Cluster sessions always auto-reconnect (backoff
// advances the workstation's virtual clock); cfg.Retry and cfg.RPCTimeout
// shape the policy, and a member that stays unreachable past its retry
// budget is routed around via the ring's successor list.
func (w *Workstation) ConnectCluster(ctx context.Context, cfg SessionConfig, members ...string) (*ClusterClient, error) {
	if len(members) == 0 {
		return nil, errors.New("shadow: ConnectCluster needs at least one member name")
	}
	ccfg := client.Config{
		User:       cfg.Env.User,
		Universe:   w.cluster.Universe,
		Host:       w.name,
		Env:        cfg.Env,
		Tilde:      cfg.Tilde,
		Store:      cfg.Store,
		Jobs:       cfg.Jobs,
		Clock:      w.host,
		Obs:        cfg.Obs,
		Retry:      cfg.Retry,
		RPCTimeout: cfg.RPCTimeout,
		Sleep: func(ctx context.Context, d time.Duration) error {
			w.host.Process(d)
			return ctx.Err()
		},
	}
	cms := make([]client.ClusterMember, len(members))
	for i, name := range members {
		name := name
		cms[i] = client.ClusterMember{
			Name: name,
			Dial: func() (wire.Conn, error) { return w.host.Dial(name, ServerPort) },
		}
	}
	return client.ConnectCluster(ctx, cms, ccfg)
}

// ConnectRJE opens a conventional (full-transfer) baseline session to the
// default server.
func (w *Workstation) ConnectRJE(user string) (*RJEClient, error) {
	conn, err := w.host.Dial(w.cluster.defaultName, ServerPort)
	if err != nil {
		return nil, fmt.Errorf("shadow: dial: %w", err)
	}
	cl, err := rje.Connect(conn, user, w.cluster.Universe, w.name)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return cl, nil
}

// NewShadowEditor returns the workstation's shadow editor bound to a client.
func (w *Workstation) NewShadowEditor(c *Client) *ShadowEditor {
	return editor.NewShadow(w.cluster.Universe, w.name, c)
}

// ErrClosed reports use of a closed cluster.
var ErrClosed = errors.New("shadow: cluster closed")
