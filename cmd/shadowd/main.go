// Command shadowd runs a shadow server over real TCP: the daemon that would
// run at a supercomputer site, listening at a well-known port for client
// connections (§7).
//
// Usage:
//
//	shadowd [-addr :4217] [-name super] [-cache 256M] [-cache-policy lru]
//	        [-pull eager|lazy|load-aware] [-jobs 2] [-compress]
//	        [-admin :9090] [-log-level info] [-log-format text|json]
//	        [-trace off|all|N]
//	        [-peers super1=h1:4217,super2=h2:4217] [-instance super1]
//	        [-peer-admin super1=h1:9090,super2=h2:9090]
//
// With -peers set, the instance joins a shadow-cache cluster:
// files are owned by consistent-hash placement, non-owned inputs are
// fetched instance-to-instance as deltas or chunk manifests, and every
// member must be started with the identical -peers list. See DESIGN.md's
// cluster chapter.
//
// With -admin set, an operator HTTP endpoint serves /healthz, /metrics
// (Prometheus text), /cachez, /sessionz, /tracez, /flightz, /peerz,
// /clusterz and /debug/pprof on that address; see OBSERVABILITY.md for the
// full reference. -peer-admin names the other members' admin endpoints so
// /clusterz can scrape and merge the whole fleet from any one member. -log-level
// enables structured event logging (slog) at the given level. -trace turns
// on cycle tracing and the per-session flight recorders: "all" traces every
// cycle, an integer N samples one cycle in N, "off" (the default) disables
// both.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	shadow "shadowedit"
	"shadowedit/internal/admin"
	"shadowedit/internal/obs"
	"shadowedit/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("shadowd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":4217", "listen address")
		name        = fs.String("name", "super", "advertised server name")
		cacheSize   = fs.String("cache", "0", "shadow cache capacity (bytes; K/M/G suffix; 0 = unbounded)")
		cachePolicy = fs.String("cache-policy", "lru", "cache eviction policy: lru or largest-first")
		pull        = fs.String("pull", "eager", "update retrieval policy: eager, lazy or load-aware")
		jobsN       = fs.Int("jobs", 2, "maximum concurrent jobs")
		loadThresh  = fs.Int("load-threshold", 4, "queue depth at which load-aware pulling defers")
		compress    = fs.Bool("compress", false, "compress output transfers")
		adminAddr   = fs.String("admin", "", "admin endpoint address (e.g. :9090); empty disables it")
		logLevel    = fs.String("log-level", "", "structured event log level: debug, info, warn or error; empty disables")
		logFormat   = fs.String("log-format", "text", "structured event log format: text or json")
		traceMode   = fs.String("trace", "off", "cycle tracing: off, all, or an integer N to trace one cycle in N")
		peers       = fs.String("peers", "", "shadow-cache cluster members as name=addr pairs, comma-separated and including this instance; empty runs standalone")
		instance    = fs.String("instance", "", "this instance's cluster member name (default: -name)")
		peerAdmin   = fs.String("peer-admin", "", "peer admin endpoints as name=host:port pairs for /clusterz fleet aggregation; exclude this instance")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := shadow.DefaultServerConfig(*name)
	capacity, err := parseSize(*cacheSize)
	if err != nil {
		return fmt.Errorf("shadowd: -cache: %w", err)
	}
	cfg.CacheCapacity = capacity
	switch strings.ToLower(*cachePolicy) {
	case "lru":
		cfg.CachePolicy = shadow.CacheLRU
	case "largest-first", "largest":
		cfg.CachePolicy = shadow.CacheLargestFirst
	default:
		return fmt.Errorf("shadowd: unknown cache policy %q", *cachePolicy)
	}
	switch strings.ToLower(*pull) {
	case "eager":
		cfg.Pull = shadow.PullEager
	case "lazy":
		cfg.Pull = shadow.PullLazy
	case "load-aware":
		cfg.Pull = shadow.PullLoadAware
	default:
		return fmt.Errorf("shadowd: unknown pull policy %q", *pull)
	}
	cfg.MaxConcurrentJobs = *jobsN
	cfg.LoadThreshold = *loadThresh
	cfg.Compress = *compress

	// The observer is always created so the admin endpoint can render
	// latency histograms; structured event logging is additionally enabled
	// by -log-level (histograms alone never touch slog).
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	cfg.Obs = obs.New(logger, nil)
	tracer, err := buildTracer(*traceMode)
	if err != nil {
		return err
	}
	cfg.Obs.SetTracer(tracer)

	// Every session holds one descriptor; a capacity-scale fleet needs the
	// soft limit out of the way before the first accept.
	if cur, hard, ok := raiseFileLimit(); ok {
		log.Printf("shadowd: file descriptor limit %d (hard %d)", cur, hard)
	}

	srv := shadow.NewServer(cfg)
	defer srv.Close()

	if *peers != "" {
		members, err := parsePeers(*peers)
		if err != nil {
			return fmt.Errorf("shadowd: -peers: %w", err)
		}
		self := *instance
		if self == "" {
			self = *name
		}
		if _, ok := members[self]; !ok {
			return fmt.Errorf("shadowd: -peers must include this instance %q", self)
		}
		shadow.JoinClusterTCP(srv, self, members)
		log.Printf("shadowd: joined shadow-cache cluster as %q (%d members)", self, len(members))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("shadowd: %w", err)
	}
	// Accept failures that aren't a closed listener (EMFILE exhaustion,
	// aborted handshakes) must not kill a daemon with thousands of live
	// sessions: log, back off, keep accepting.
	ln = &backoffListener{Listener: ln}
	log.Printf("shadowd %q listening on %s (pull=%s, jobs=%d, cache=%s/%s)",
		*name, ln.Addr(), *pull, *jobsN, *cacheSize, *cachePolicy)

	if *adminAddr != "" {
		adminLn, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("shadowd: -admin: %w", err)
		}
		defer adminLn.Close()
		var peerURLs map[string]string
		if *peerAdmin != "" {
			endpoints, err := parsePeers(*peerAdmin)
			if err != nil {
				return fmt.Errorf("shadowd: -peer-admin: %w", err)
			}
			self := *instance
			if self == "" {
				self = *name
			}
			peerURLs = make(map[string]string, len(endpoints))
			for member, addr := range endpoints {
				if member == self {
					continue // this member answers for itself locally
				}
				peerURLs[member] = "http://" + addr
			}
		}
		go func() {
			h := admin.NewHandler(admin.Options{Server: srv, Peers: peerURLs})
			if serr := http.Serve(adminLn, h); serr != nil && !errors.Is(serr, net.ErrClosed) {
				log.Printf("shadowd: admin endpoint: %v", serr)
			}
		}()
		log.Printf("shadowd: admin endpoint on %s (/healthz /metrics /cachez /sessionz /tracez /flightz /peerz /clusterz /debug/pprof)", adminLn.Addr())
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting, drain the live
	// sessions (pipelined writers flush their pending output), let queued
	// jobs finish, then exit. A second signal kills the process the hard
	// way via the default handler.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sigSeen := make(chan struct{})
	sigDone := make(chan struct{})
	go func() {
		defer close(sigDone)
		sig := <-sigc
		close(sigSeen)
		signal.Stop(sigc)
		log.Printf("shadowd: %v: draining sessions and shutting down", sig)
		srv.Close()    // marks the server closed, drains and flushes sessions
		_ = ln.Close() // then unblock the accept loop
		snap := srv.Metrics()
		log.Printf("shadowd: drained; %s; %s; %s", snap, snap.CacheString(), snap.FaultString())
		if tracer != nil {
			ts := tracer.Stats()
			log.Printf("shadowd: tracing: %d minted (%d unsampled), %d completed, %d active, %d evicted; %d spans (%d dropped); %d flight dumps retained",
				ts.Minted, ts.Unsampled, ts.Completed, ts.Active, ts.Evicted, ts.Spans, ts.DroppedSpans, len(srv.FlightDumps()))
		}
	}()
	err = shadow.ServeTCP(srv, ln)
	// Closing the listener unblocks ServeTCP before the handler has logged
	// its final summary; if a signal started the shutdown, let it finish.
	select {
	case <-sigSeen:
		<-sigDone
	default:
	}
	return err
}

// backoffListener retries transient Accept failures with exponential
// backoff instead of surfacing them, which would end Serve and take every
// live session down with it. Only a closed listener (the shutdown path)
// propagates.
type backoffListener struct {
	net.Listener
}

func (l *backoffListener) Accept() (net.Conn, error) {
	delay := 5 * time.Millisecond
	for {
		c, err := l.Listener.Accept()
		if err == nil {
			return c, nil
		}
		if errors.Is(err, net.ErrClosed) {
			return nil, err
		}
		log.Printf("shadowd: accept: %v (retrying in %v)", err, delay)
		time.Sleep(delay)
		if delay < time.Second {
			delay *= 2
		}
	}
}

// buildTracer interprets -trace: nil (off), trace-everything, or a 1-in-N
// deterministic sample.
func buildTracer(mode string) (*trace.Tracer, error) {
	switch strings.ToLower(mode) {
	case "", "off", "0":
		return nil, nil
	case "all", "1":
		return trace.New(trace.Config{}), nil
	}
	n, err := strconv.Atoi(mode)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("shadowd: -trace must be off, all, or a positive sample rate (got %q)", mode)
	}
	return trace.New(trace.Config{Sample: n}), nil
}

// buildLogger constructs the structured event logger, or nil when logging
// is disabled (empty level).
func buildLogger(level, format string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("shadowd: unknown log level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("shadowd: unknown log format %q", format)
	}
}

// parsePeers parses "super1=host1:4217,super2=host2:4217" into a member map.
func parsePeers(s string) (map[string]string, error) {
	members := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad member %q (want name=addr)", part)
		}
		if _, dup := members[name]; dup {
			return nil, fmt.Errorf("duplicate member %q", name)
		}
		members[name] = addr
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("empty member list")
	}
	return members, nil
}

// parseSize parses "0", "1024", "64K", "256M", "2G".
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative size %q", s)
	}
	return n * mult, nil
}
