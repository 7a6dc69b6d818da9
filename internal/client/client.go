// Package client implements the shadow client that runs at a user's
// workstation (§6.1): it hides all communication detail, versions edited
// files, answers the server's demand-driven pulls with deltas, submits jobs,
// tracks their status, and receives their output.
//
// The session layer is fault tolerant: with a Dial function configured, a
// lost connection is re-established with exponential backoff, the session is
// resumed against the server's identity-keyed state (held outputs are
// re-delivered, dangling pulls re-issued), and interrupted requests are
// retried idempotently. Every blocking call takes a context and returns
// errors from the package's typed taxonomy (ErrDisconnected,
// ErrRetriesExhausted, ErrDeadlineExceeded, ErrBaseEvicted).
package client

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path"
	"slices"
	"sync"
	"time"

	"shadowedit/internal/core"
	"shadowedit/internal/diff"
	"shadowedit/internal/env"
	"shadowedit/internal/metrics"
	"shadowedit/internal/naming"
	"shadowedit/internal/obs"
	"shadowedit/internal/trace"
	"shadowedit/internal/vcs"
	"shadowedit/internal/wire"
)

// RetryPolicy shapes reconnection and request retries: exponential backoff
// with seeded jitter, bounded by MaxAttempts. The zero value selects the
// defaults noted on each field.
type RetryPolicy struct {
	// MaxAttempts bounds reconnect attempts per outage and retries per
	// request (default 8).
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 5s).
	MaxDelay time.Duration
	// Multiplier grows the delay each attempt (default 2).
	Multiplier float64
	// Jitter randomizes each delay by ±Jitter fraction (default 0.2).
	Jitter float64
	// Seed seeds the jitter RNG for reproducible simulations; 0 derives a
	// stable seed from the client's identity.
	Seed int64
}

// withDefaults fills unset fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter <= 0 {
		p.Jitter = 0.2
	}
	return p
}

// Config parametrizes a Client.
type Config struct {
	// User is the submitting user.
	User string
	// Universe is the local naming domain and file storage.
	Universe *naming.Universe
	// Host is the workstation's name within the universe.
	Host string
	// Env holds the user's shadow environment (customization).
	Env env.Environment
	// WorkDir is where job results are written when output file names are
	// relative; defaults to /home/<user>.
	WorkDir string
	// Tilde optionally holds the user's tilde-tree bindings; file names
	// of the form "~tree/path" resolve through it (§5.3 Tilde naming).
	Tilde *naming.TildeSpace
	// Store optionally seeds the version store — typically one restored
	// with vcs.Load after a client restart, so retained versions (and
	// with them the ability to answer pulls with deltas) survive. Nil
	// creates a fresh store.
	Store *vcs.Store
	// Jobs optionally seeds the job database — typically one restored
	// with env.LoadJobDB, so job records survive restarts. Nil creates a
	// fresh database.
	Jobs *env.JobDB
	// Clock receives local compute charges (diff runs) in simulations.
	Clock core.Clock
	// Chunked makes this client answer pulls with content-addressed chunk
	// manifests (inlining only the chunks new against the server's base)
	// instead of line deltas, and lets the server fetch missing chunks
	// individually instead of whole files. Off, pulls are answered with
	// deltas and full copies.
	Chunked bool
	// PerFileSync forces Workspace.Sync onto the one-notify-per-file path
	// instead of the tree walk — the baseline the walk is measured against
	// (`shadow-bench -fig treesync`).
	PerFileSync bool

	// Dial, when set, enables the fault-tolerant session layer: a lost
	// connection is redialed with backoff, the session resumed, and
	// interrupted requests retried (submissions carry idempotency tags).
	// Without it the client behaves as before — one connection, and a
	// disconnect ends the session with ErrDisconnected.
	Dial func() (wire.Conn, error)
	// Retry shapes reconnection and retry backoff; zero-value fields take
	// the documented defaults.
	Retry RetryPolicy
	// RPCTimeout bounds each attempt of a synchronous round trip (submit,
	// status). An attempt that exceeds it severs the suspect connection
	// and retries over a fresh one. Zero disables per-attempt deadlines;
	// callers still bound calls with their context.
	RPCTimeout time.Duration
	// Sleep, when set, replaces real sleeping during backoff — simulated
	// deployments advance the workstation's virtual clock instead, so
	// backoff escapes link-flap windows in virtual time. It must respect
	// ctx cancellation. Nil sleeps on the wall clock.
	Sleep func(ctx context.Context, d time.Duration) error

	// Obs, when set, records the full edit–submit–fetch cycle latency
	// (Submit called → output delivered) in its Cycle histogram. Nil keeps
	// the submit and delivery paths free of any instrumentation cost.
	Obs *obs.Observer
}

// SubmitOptions are the per-submission optional arguments of the submit
// command (§6.2): result file names, an alternate execution host is chosen
// by connecting to a different server, and output routing.
type SubmitOptions struct {
	// OutputFile and ErrorFile override the environment's defaults.
	OutputFile string
	ErrorFile  string
	// RouteHost delivers output to a session from another host.
	RouteHost string
	// OutputDelta requests reverse shadow processing for this job; the
	// environment's WantOutputDelta is the default.
	OutputDelta *bool
}

// Client is one workstation's connection to one shadow server. A user may
// hold several clients, one per supercomputer.
type Client struct {
	cfg      Config
	store    *vcs.Store
	jobdb    *env.JobDB
	counters *metrics.Counters

	// serverName is written once during the initial handshake (before any
	// other goroutine exists) and read-only afterwards.
	serverName string

	retry RetryPolicy

	// lifeCtx cancels the supervisor's sleeps and redials when the client
	// closes.
	lifeCtx  context.Context
	lifeStop context.CancelFunc

	reqMu sync.Mutex // serializes synchronous request/response exchanges

	mu       sync.Mutex
	conn     wire.Conn     // current transport; nil while disconnected
	connDown chan struct{} // closed when the current conn is torn down
	connUp   chan struct{} // closed once a conn is live; remade when it dies
	session  uint64
	awaiting chan wire.Message // live only while a request is outstanding
	replyCh  chan wire.Message // reused across attempts; drained at install
	pending  *awaitedJob       // submit in flight, installed on SUBMIT_OK
	outPrev  map[uint32][]byte // script checksum -> last received stdout
	// awaited holds the jobs whose output has not arrived and nothing else:
	// handleOutput takes a job's record out as it delivers, and from then on
	// the job database is what knows the job (Wait on a delivered job
	// answers from there).
	awaited map[uint64]*awaitedJob
	// delivered lists the jobs delivered whose record no caller has been
	// handed yet — what WaitAny returns next. Wait and Fetch take their job
	// off it, and it holds at most maxUntaken ids: the oldest fall off under
	// a caller that never asks.
	delivered []uint64
	arrivals  chan struct{} // signaled on each delivery
	// ackSignal wakes awaitAcks after each FileAck is applied to the
	// store (buffered: a signal is never lost, dozens coalesce into one
	// wakeup and the waiter rescans).
	ackSignal chan struct{}
	closed    bool
	lastErr   error // final error; set when the client finishes
	lastDrop  error // why the current connection died (supervisor scratch)
	tagBase   uint64
	nextTag   uint64
	rng       *rand.Rand // backoff jitter, guarded by mu

	done      chan struct{} // closed when the client is permanently finished
	doneOnce  sync.Once
	superDone chan struct{} // supervisor exited
}

// awaitedJob is what the client holds for one job until its output arrives.
// A submit's record travels from the caller to the read loop as the pending
// submit, which installs it under the job id the moment SUBMIT_OK arrives.
// Registration must not wait for the caller to resume: the job's OUTPUT can
// follow SUBMIT_OK immediately, and an output for an unregistered job would
// be mistaken for one whose delta base is gone. A Wait that comes first
// makes a record holding only its channel; the job is known once the
// metadata is installed.
type awaitedJob struct {
	known     bool
	scriptSum uint32
	// Output and error file names, unexpanded ("" = the environment default
	// with %J = job id) until the job id is known.
	outputFile string
	errorFile  string
	// cycleStart stamps the Submit call for the full-cycle histogram;
	// timed distinguishes a real stamp from an untimed submission (a
	// virtual clock legitimately reads 0).
	cycleStart time.Duration
	timed      bool
	// span is the cycle's root trace span (nil when untraced), closed on
	// delivery.
	span *trace.Span
	// done is the channel Wait blocks on, made by whoever asks first.
	done chan struct{}
}

// install makes the job known under id from the pending submit p, expanding
// the file names against the id.
func (a *awaitedJob) install(p *awaitedJob, e env.Environment, id uint64) {
	done := a.done
	*a = *p
	a.known, a.done = true, done
	if a.outputFile == "" {
		a.outputFile = e.ExpandOutput(id)
	}
	if a.errorFile == "" {
		a.errorFile = e.ExpandError(id)
	}
	a.span.SetJob(id)
}

// Connect establishes a session: it sends HELLO over conn (dialing one via
// cfg.Dial when conn is nil), waits for HELLO_OK, and starts the background
// supervisor that answers server pulls and — with cfg.Dial set — re-dials
// and resumes the session after connection loss. ctx bounds only the
// handshake.
func Connect(ctx context.Context, conn wire.Conn, cfg Config) (*Client, error) {
	if cfg.Universe == nil {
		return nil, errors.New("client: Config.Universe is required")
	}
	if cfg.User == "" {
		cfg.User = cfg.Env.User
	}
	if cfg.Env.User == "" {
		cfg.Env = env.Default(cfg.User)
	}
	if err := cfg.Env.Validate(); err != nil {
		return nil, err
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = "/home/" + cfg.User
	}
	if cfg.Clock == nil {
		cfg.Clock = core.NopClock{}
	}

	store := cfg.Store
	if store == nil {
		store = vcs.NewStore(cfg.Env.RetainVersions)
	} else {
		store.SetRetain(cfg.Env.RetainVersions)
	}
	jobdb := cfg.Jobs
	if jobdb == nil {
		jobdb = env.NewJobDB()
	}
	if conn == nil {
		if cfg.Dial == nil {
			return nil, errors.New("client: Connect needs a connection or Config.Dial")
		}
		var err error
		conn, err = cfg.Dial()
		if err != nil {
			return nil, fmt.Errorf("client: dial: %w", err)
		}
	}
	c := &Client{
		cfg:       cfg,
		store:     store,
		jobdb:     jobdb,
		counters:  &metrics.Counters{},
		retry:     cfg.Retry.withDefaults(),
		outPrev:   make(map[uint32][]byte),
		awaited:   make(map[uint64]*awaitedJob),
		arrivals:  make(chan struct{}, 1),
		ackSignal: make(chan struct{}, 1),
		connDown:  make(chan struct{}),
		connUp:    make(chan struct{}),
		done:      make(chan struct{}),
		superDone: make(chan struct{}),
	}
	c.rng = rand.New(rand.NewSource(c.jitterSeed()))
	c.lifeCtx, c.lifeStop = context.WithCancel(context.Background())

	// The handshake honors ctx by severing the transport on expiry.
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	err := c.handshake(conn)
	stop()
	if err != nil {
		c.lifeStop()
		_ = conn.Close()
		if ctx.Err() != nil {
			return nil, ctxErr("connect", ctx.Err())
		}
		return nil, err
	}
	c.installConn(conn)
	go c.supervise(conn)
	return c, nil
}

// jitterSeed derives a stable per-identity seed when the policy leaves it 0.
func (c *Client) jitterSeed() int64 {
	if c.retry.Seed != 0 {
		return c.retry.Seed
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(c.cfg.User))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(c.cfg.Host))
	return int64(h.Sum64() | 1)
}

// ServerName returns the connected server's advertised name.
func (c *Client) ServerName() string { return c.serverName }

// chunkedActive reports whether pulls are answered with chunk manifests
// (bench/'s chunk-pressure workload) rather than deltas and full copies
// (every other workload).
func (c *Client) chunkedActive() bool { return c.cfg.Chunked }

// Store exposes the version store (tests and the editor integration).
func (c *Client) Store() *vcs.Store { return c.store }

// Jobs exposes the client's job database.
func (c *Client) Jobs() *env.JobDB { return c.jobdb }

// Metrics returns the client's transfer counters.
func (c *Client) Metrics() metrics.Snapshot { return c.counters.Snapshot() }

// Backlog reports what the client is holding per job: awaiting counts the
// jobs whose output has not arrived, untaken the delivered jobs no Wait,
// WaitAny or Fetch has returned yet. Both are zero on an idle client whose
// caller collects what it submits. The retention tests of client and server
// read it to check that a client forgets what it has delivered.
func (c *Client) Backlog() (awaiting, untaken int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.awaited), len(c.delivered)
}

// CommitAndNotify registers the current content of the named local file as a
// new version and notifies the server (the shadow editor's postprocessor
// calls this at the end of every editing session). Unchanged content sends
// nothing — the result's WireBytes is then 0. A changed file begins a traced
// "notify" cycle when tracing is on: the NOTIFY carries the minted context,
// so the server's pull decision and cache apply join the same causal trace.
// The client's part of that cycle is over once the NOTIFY is on the wire,
// and the server's spans append to the completed record when the deployment
// shares one tracer. This is the single-file degenerate case of
// Workspace.Sync; both report through the same NotifyResult shape.
func (c *Client) CommitAndNotify(filePath string) (NotifyResult, error) {
	res, notify, err := c.commit(filePath)
	if notify == nil {
		return res, err
	}
	sp := c.cfg.Obs.StartTrace("notify").SetFile(res.File.String())
	tc := sp.Context()
	err = c.sendTraced(notify, tc)
	if sp != nil {
		if err != nil {
			sp.Annotate("send failed")
		}
		sp.Finish()
		c.cfg.Obs.EndTrace(sp.Context())
	}
	if err != nil {
		return NotifyResult{}, err
	}
	res.WireBytes = len(wire.MarshalTraced(notify, tc))
	return res, nil
}

// commit registers the current content of the named local file as a new
// version and returns the NOTIFY that announces it, nil when the content is
// unchanged. Sending it is the caller's business: CommitAndNotify sends it
// at once, a submission in the same write as its SUBMIT.
func (c *Client) commit(filePath string) (NotifyResult, *wire.Notify, error) {
	ref, err := c.refFor(filePath)
	if err != nil {
		return NotifyResult{}, nil, err
	}
	v, changed, err := c.store.CommitRead(ref, 0, func(dst []byte) ([]byte, error) {
		return c.readFile(dst, filePath)
	})
	if err != nil {
		return NotifyResult{}, nil, err
	}
	res := NotifyResult{File: ref, Version: v.Number}
	if !changed {
		return res, nil, nil
	}
	c.counters.AddControl(0)
	return res, &wire.Notify{
		File:    ref,
		Version: v.Number,
		Size:    int64(len(v.Content)),
		Sum:     v.Sum,
	}, nil
}

// Submit sends a job: scriptPath names the job command file, dataPaths the
// data files its commands read (referenced by base name). It returns the
// server-assigned job id. With Config.Dial set, a submission interrupted by
// connection loss is retried over the re-established session under an
// idempotency tag, so the job runs exactly once.
func (c *Client) Submit(ctx context.Context, scriptPath string, dataPaths []string, opts SubmitOptions) (uint64, error) {
	cycleStart := c.cfg.Obs.Now()
	// The root span of the whole edit–submit–fetch cycle: minted here,
	// closed by handleOutput when the job's output is delivered. Retries
	// reuse it — however many attempts, it is one cycle.
	root := c.cfg.Obs.StartTrace("cycle")
	job, err := c.submitRetrying(ctx, scriptPath, dataPaths, opts, cycleStart, root)
	if err != nil && root != nil {
		root.Annotate("submit failed: " + err.Error()).Finish()
		c.cfg.Obs.EndTrace(root.Context())
	}
	return job, err
}

// submitRetrying is Submit's retry loop, split out so the caller can close
// the cycle trace on terminal failure.
func (c *Client) submitRetrying(ctx context.Context, scriptPath string, dataPaths []string, opts SubmitOptions, cycleStart time.Duration, root *trace.Span) (uint64, error) {
	script, err := c.readFile(nil, scriptPath)
	if err != nil {
		return 0, fmt.Errorf("client: read script: %w", err)
	}
	var tag uint64
	if c.cfg.Dial != nil {
		tag = c.newTag()
	}
	for attempt := 1; ; attempt++ {
		job, err := c.submitOnce(ctx, script, dataPaths, opts, tag, cycleStart, root)
		if err == nil {
			return job, nil
		}
		var tr *transientErr
		if !errors.As(err, &tr) {
			return 0, err
		}
		if c.cfg.Dial == nil {
			return 0, tr.cause
		}
		if attempt >= c.retry.MaxAttempts {
			return 0, tagErr(ErrRetriesExhausted,
				fmt.Errorf("client: submit failed after %d attempts: %w", attempt, tr.cause))
		}
		c.counters.AddRetry()
	}
}

// submitOnce performs one submission attempt over the current connection.
// The NOTIFYs for the inputs that changed go out ahead of the SUBMIT, in the
// same write. If that write fails, the retry finds the inputs committed and
// sends the SUBMIT alone: it names the versions, and the server pulls what
// it lacks.
func (c *Client) submitOnce(ctx context.Context, script []byte, dataPaths []string, opts SubmitOptions, tag uint64, cycleStart time.Duration, root *trace.Span) (uint64, error) {
	inputs := make([]wire.JobInput, 0, len(dataPaths))
	// The NOTIFYs, then the SUBMIT; a constant capacity keeps it off the heap.
	frames := make([]wire.Message, 0, 4)
	for _, p := range dataPaths {
		res, notify, err := c.commit(p)
		if err != nil {
			return 0, fmt.Errorf("client: prepare %s: %w", p, err)
		}
		if notify != nil {
			frames = append(frames, notify)
		}
		inputs = append(inputs, wire.JobInput{File: res.File, Version: res.Version, As: path.Base(p)})
	}
	wantDelta := c.cfg.Env.WantOutputDelta
	if opts.OutputDelta != nil {
		wantDelta = *opts.OutputDelta
	}
	req := &wire.Submit{
		Script:          script,
		Inputs:          inputs,
		OutputFile:      opts.OutputFile,
		ErrorFile:       opts.ErrorFile,
		RouteHost:       opts.RouteHost,
		WantOutputDelta: wantDelta,
		ClientTag:       tag,
	}
	// The read loop installs the job metadata as soon as SUBMIT_OK
	// arrives — before this goroutine resumes — because the job's OUTPUT
	// can be right behind it on the wire.
	p := &awaitedJob{
		scriptSum:  diff.Checksum(script),
		outputFile: opts.OutputFile,
		errorFile:  opts.ErrorFile,
		cycleStart: cycleStart,
		timed:      c.cfg.Obs != nil,
		span:       root,
	}
	reply, err := c.attempt(ctx, append(frames, req), root.Context(), p)
	if err != nil {
		return 0, err
	}
	ok, isOK := reply.(*wire.SubmitOK)
	if !isOK {
		return 0, replyError(reply)
	}

	// routeReply registered the job (metadata, job record, timing stamp, root
	// span) before handing over the reply; by now its output may already have
	// been delivered, so nothing is parked from here.
	return ok.Job, nil
}

// newTag mints a submission idempotency tag unique within this identity:
// the first session id keys the space, so a restarted client (fresh session)
// never collides with its predecessor's tags.
func (c *Client) newTag() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tagBase == 0 {
		c.tagBase = c.session << 20
	}
	c.nextTag++
	return c.tagBase + c.nextTag
}

// Status queries one job's state at the server.
func (c *Client) Status(ctx context.Context, job uint64) (wire.JobStatus, error) {
	reply, err := c.roundTrip(ctx, &wire.StatusReq{Job: job})
	if err != nil {
		return wire.JobStatus{}, err
	}
	sr, ok := reply.(*wire.StatusReply)
	if !ok {
		return wire.JobStatus{}, replyError(reply)
	}
	if len(sr.Jobs) != 1 {
		return wire.JobStatus{}, fmt.Errorf("client: status returned %d entries", len(sr.Jobs))
	}
	st := sr.Jobs[0]
	c.jobdb.UpdateState(c.serverName, st.Job, st.State, st.Detail)
	return st, nil
}

// StatusAll queries every job of this session.
func (c *Client) StatusAll(ctx context.Context) ([]wire.JobStatus, error) {
	reply, err := c.roundTrip(ctx, &wire.StatusReq{All: true})
	if err != nil {
		return nil, err
	}
	sr, ok := reply.(*wire.StatusReply)
	if !ok {
		return nil, replyError(reply)
	}
	for _, st := range sr.Jobs {
		c.jobdb.UpdateState(c.serverName, st.Job, st.State, st.Detail)
	}
	return sr.Jobs, nil
}

// Wait blocks until the job's output has been delivered and returns its
// record. The system "retrieves the output at the end of job execution and
// notifies the user of job completion" — Wait is that notification. It
// returns promptly when ctx expires (ErrDeadlineExceeded on a deadline,
// context.Canceled on cancellation) and rides out reconnections: delivery
// resumes on the re-established session.
func (c *Client) Wait(ctx context.Context, job uint64) (env.JobRecord, error) {
	select {
	case <-c.waitChan(job):
	case <-ctx.Done():
		return env.JobRecord{}, ctxErr("wait", ctx.Err())
	case <-c.done:
		if rec, ok := c.take(job); ok {
			return rec, nil
		}
		return env.JobRecord{}, c.sessionErr()
	}
	rec, ok := c.take(job)
	if !ok {
		return env.JobRecord{}, fmt.Errorf("client: job %d vanished", job)
	}
	return rec, nil
}

// maxUntaken bounds the list of delivered jobs WaitAny has yet to return.
const maxUntaken = 1024

// alreadyDone is the channel Wait gets for a job that needs no waiting.
var alreadyDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// waitChan returns the channel that closes when job's output is delivered.
// handleOutput marks the record delivered and forgets the job's channel under
// one hold of mu, so under mu a job is either still awaited (its channel is
// here, or is made now) or its record says delivered.
func (c *Client) waitChan(job uint64) chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.awaited[job]
	if a == nil {
		if c.jobdb.Delivered(c.serverName, job) {
			return alreadyDone
		}
		a = &awaitedJob{}
		c.awaited[job] = a
	}
	if a.done == nil {
		a.done = make(chan struct{})
	}
	return a.done
}

// take hands a delivered job's record to a caller: it comes off the list
// WaitAny serves, and output the job database no longer holds in memory is
// read back from the result files, which are the durable copy.
func (c *Client) take(job uint64) (env.JobRecord, bool) {
	rec, ok := c.jobdb.Get(c.serverName, job)
	if !ok || !rec.Delivered {
		return env.JobRecord{}, false
	}
	c.mu.Lock()
	if i := slices.Index(c.delivered, job); i >= 0 {
		c.delivered = slices.Delete(c.delivered, i, i+1)
	}
	c.mu.Unlock()
	if rec.OutputOnDisk {
		u := c.cfg.Universe
		rec.Stdout, _ = u.ReadFile(c.cfg.Host, c.resultPath(rec.OutputFile))
		rec.Stderr, _ = u.ReadFile(c.cfg.Host, c.resultPath(rec.ErrorFile)) // written only when there was any
		rec.OutputOnDisk = false
	}
	return rec, true
}

// WaitAny blocks until any job output is delivered to this session whose
// record no previous Wait, WaitAny or Fetch call has returned — including
// output routed here from jobs submitted by other hosts (§8.3). It returns
// the job's record.
func (c *Client) WaitAny(ctx context.Context) (env.JobRecord, error) {
	for {
		c.mu.Lock()
		var id uint64
		pending := len(c.delivered) > 0
		if pending {
			id = c.delivered[0]
		}
		c.mu.Unlock()
		if pending {
			if rec, ok := c.take(id); ok {
				return rec, nil
			}
			// Forgotten by the job database before anyone asked; drop it.
			c.mu.Lock()
			if len(c.delivered) > 0 && c.delivered[0] == id {
				c.delivered = slices.Delete(c.delivered, 0, 1)
			}
			c.mu.Unlock()
			continue
		}
		select {
		case <-c.arrivals:
		case <-ctx.Done():
			return env.JobRecord{}, ctxErr("wait-any", ctx.Err())
		case <-c.done:
			return env.JobRecord{}, c.sessionErr()
		}
	}
}

// Fetch returns a job's record with its output, retrieving it if it has not
// been delivered yet: delivered jobs return immediately from the local job
// database; finished-but-undelivered jobs get a full-output request; jobs
// still running are waited for.
func (c *Client) Fetch(ctx context.Context, job uint64) (env.JobRecord, error) {
	if rec, ok := c.take(job); ok {
		return rec, nil
	}
	st, err := c.Status(ctx, job)
	if err != nil {
		return env.JobRecord{}, err
	}
	if st.State.Terminal() && !c.jobdb.Delivered(c.serverName, job) {
		// The explicit fetch is part of the cycle: if its root span is
		// still open, the request carries the cycle's context. A delivery
		// that slips in before the request costs a duplicate, which
		// handleOutput recognizes; Wait sees the delivered record either way.
		var root *trace.Span
		c.mu.Lock()
		if a := c.awaited[job]; a != nil {
			root = a.span
		}
		c.mu.Unlock()
		if err := c.sendTraced(&wire.OutputFullReq{Job: job}, root.Context()); err != nil {
			return env.JobRecord{}, err
		}
	}
	return c.Wait(ctx, job)
}

// Bounce forcibly severs the current transport, as a mid-session network
// failure would. With Config.Dial set the client reconnects and resumes;
// without it the session ends. Chaos tests use it to inject disconnects.
func (c *Client) Bounce() {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Close ends the session.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	c.lifeStop()
	var err error
	if conn != nil {
		_ = wire.Send(conn, &wire.Bye{})
		err = conn.Close()
	}
	<-c.superDone
	return err
}

// sessionErr reports why the client can no longer serve requests.
func (c *Client) sessionErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastErr != nil {
		return c.lastErr
	}
	if c.closed {
		return ErrClosed
	}
	return ErrDisconnected
}

// finish marks the client permanently done. The first non-nil error (unless
// the client was deliberately closed) becomes the answer every subsequent
// call reports.
func (c *Client) finish(err error) {
	c.mu.Lock()
	if err != nil && c.lastErr == nil && !c.closed {
		c.lastErr = err
	}
	c.mu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
}

// send transmits one message over the current connection. Transport
// failures are tagged ErrDisconnected — the session layer's cue that a
// retry (after reconnection) may succeed.
func (c *Client) send(m wire.Message) error {
	return c.sendTraced(m, wire.TraceContext{})
}

// sendTraced is send with a trace context stamped into the frame header
// (zero contexts produce the plain untraced encoding, byte for byte).
func (c *Client) sendTraced(m wire.Message, tc wire.TraceContext) error {
	c.mu.Lock()
	conn, closed := c.conn, c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if conn == nil {
		return ErrDisconnected
	}
	if err := wire.SendBatch(conn, tc, m); err != nil {
		// Sever the transport: a partial or refused write (a link-down
		// window, say) leaves the stream unusable, and closing it is what
		// engages the supervisor's backoff-and-reconnect path. Without
		// this a flapping link wedges the session — the connection looks
		// alive, so nothing retries and (in simulations) nothing advances
		// virtual time past the outage window.
		_ = conn.Close()
		return tagErr(ErrDisconnected, fmt.Errorf("client: send %v: %w", m.Kind(), err))
	}
	return nil
}

// awaitDown waits for the supervisor to reap a connection whose send just
// failed. Without this, retries would spin against the corpse — the dead
// conn stays installed until the read loop notices — and exhaust the retry
// budget in microseconds instead of riding out the outage.
func (c *Client) awaitDown(ctx context.Context, down chan struct{}) {
	select {
	case <-down:
	case <-c.done:
	case <-ctx.Done():
	}
}

// waitConnected blocks until a live connection exists, returning it with
// its down channel. It fails when the client is closed, finished, or ctx
// expires.
func (c *Client) waitConnected(ctx context.Context) (wire.Conn, chan struct{}, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, nil, ErrClosed
		}
		if c.conn != nil {
			conn, down := c.conn, c.connDown
			c.mu.Unlock()
			return conn, down, nil
		}
		up := c.connUp
		c.mu.Unlock()
		select {
		case <-up:
		case <-c.done:
			return nil, nil, c.sessionErr()
		case <-ctx.Done():
			return nil, nil, ctxErr("waiting for connection", ctx.Err())
		}
	}
}

// roundTrip performs one synchronous request/response exchange, retrying
// transient failures when the session layer can recover (Config.Dial set).
// Server pushes (pulls, acks, output) arriving in between are handled by
// the read loop without disturbing the pending request.
func (c *Client) roundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	for attempt := 1; ; attempt++ {
		reply, err := c.attempt(ctx, []wire.Message{req}, wire.TraceContext{}, nil)
		if err == nil {
			return reply, nil
		}
		var tr *transientErr
		if !errors.As(err, &tr) {
			return nil, err
		}
		if c.cfg.Dial == nil {
			return nil, tr.cause
		}
		if attempt >= c.retry.MaxAttempts {
			return nil, tagErr(ErrRetriesExhausted,
				fmt.Errorf("client: %v failed after %d attempts: %w", req.Kind(), attempt, tr.cause))
		}
		c.counters.AddRetry()
	}
}

// attempt performs a single request/response exchange over the current
// connection, bounded by the per-RPC timeout. Connection loss and timeout
// surface as transientErr; the caller decides whether to retry. frames ends
// with the request; any frames before it go out in the same write. tc, when
// valid, rides every frame (submits propagate their cycle trace). A
// submit passes its metadata as p: it is the pending submit for exactly as
// long as this exchange holds reqMu, so the read loop can never register one
// caller's SUBMIT_OK under another's metadata.
func (c *Client) attempt(ctx context.Context, frames []wire.Message, tc wire.TraceContext, p *awaitedJob) (wire.Message, error) {
	req := frames[len(frames)-1]
	c.reqMu.Lock()
	defer c.reqMu.Unlock()

	conn, down, err := c.waitConnected(ctx)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	// One reply channel serves every attempt (reqMu serializes them). A
	// reply deposited after a timed-out attempt abandoned the channel is
	// drained here before reuse; deposits happen under mu (see routeReply),
	// so nothing can slip in between the drain and the install.
	ch := c.replyCh
	if ch == nil {
		ch = make(chan wire.Message, 1)
		c.replyCh = ch
	}
	select {
	case <-ch:
	default:
	}
	c.awaiting = ch
	c.pending = p
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.awaiting == ch {
			c.awaiting = nil
		}
		c.pending = nil
		c.mu.Unlock()
	}()

	attemptCtx := ctx
	if c.cfg.RPCTimeout > 0 {
		var cancel context.CancelFunc
		attemptCtx, cancel = context.WithTimeout(ctx, c.cfg.RPCTimeout)
		defer cancel()
	}

	if err := wire.SendBatch(conn, tc, frames...); err != nil {
		// Sever the failed transport (see send) and wait for the
		// supervisor to reap it, so the retry runs against the next
		// session instead of spinning on the corpse.
		_ = conn.Close()
		c.awaitDown(ctx, down)
		return nil, &transientErr{cause: tagErr(ErrDisconnected,
			fmt.Errorf("client: send %v: %w", req.Kind(), err))}
	}
	select {
	case reply := <-ch:
		return reply, nil
	case <-down:
		return nil, &transientErr{cause: ErrDisconnected}
	case <-c.done:
		return nil, c.sessionErr()
	case <-attemptCtx.Done():
		if ctx.Err() != nil {
			// The caller's own context expired: report, don't retry.
			return nil, ctxErr(req.Kind().String(), ctx.Err())
		}
		// The per-RPC deadline expired: the connection is suspect.
		// Sever it — the supervisor redials — and let the caller retry.
		_ = conn.Close()
		return nil, &transientErr{cause: tagErr(ErrDeadlineExceeded,
			fmt.Errorf("client: %v: %w", req.Kind(), context.DeadlineExceeded))}
	}
}

func replyError(reply wire.Message) error {
	if em, ok := reply.(*wire.ErrorMsg); ok {
		return em
	}
	return fmt.Errorf("client: unexpected reply %v", reply.Kind())
}

// refFor resolves a local file name — ordinary or tilde — to its globally
// unique protocol reference.
func (c *Client) refFor(filePath string) (wire.FileRef, error) {
	if naming.IsTilde(filePath) {
		if c.cfg.Tilde == nil {
			return wire.FileRef{}, fmt.Errorf("client: tilde name %q but no tilde space configured", filePath)
		}
		return c.cfg.Tilde.FileRef(filePath)
	}
	return c.cfg.Universe.FileRef(c.cfg.Host, filePath)
}

// readFile reads a local file by ordinary or tilde name into dst's backing
// array (naming.Universe.ReadFileInto).
func (c *Client) readFile(dst []byte, filePath string) ([]byte, error) {
	if naming.IsTilde(filePath) {
		if c.cfg.Tilde == nil {
			return nil, fmt.Errorf("client: tilde name %q but no tilde space configured", filePath)
		}
		return c.cfg.Tilde.ReadFileInto(dst, filePath)
	}
	return c.cfg.Universe.ReadFileInto(dst, c.cfg.Host, filePath)
}
