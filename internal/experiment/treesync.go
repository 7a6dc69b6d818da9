// Tree-sync figure: what workspace-scale Merkle reconciliation buys when a
// large tree has diverged only a little. Two cells run the same workload —
// a 10k-file monorepo primed onto the server, then 1% of files edited and
// the workspace re-synced over a slow simulated link:
//
//   - perfile: the classic path (Config.PerFileSync) — Sync announces every
//     file's head, one NOTIFY per file, so the wire cost scales with the
//     tree, not the change.
//   - tree:    TREE_HEAD/TREE_DIFF walk the summary down only
//     divergent subtrees, then one BATCH_NOTIFY carries the sparse edits.
//     Messages and time scale with what changed.
//
// The measured quantity is the reconciliation exchange itself: every frame
// in either direction during the second Sync, plus its elapsed virtual time
// on the link.
package experiment

import (
	"context"
	"fmt"
	"io"

	"shadowedit/internal/client"
	"shadowedit/internal/env"
	"shadowedit/internal/naming"
	"shadowedit/internal/netsim"
	"shadowedit/internal/server"
	"shadowedit/internal/wire"
	"shadowedit/internal/workload"
)

// TreeSyncConfig parametrizes RunTreeSync.
type TreeSyncConfig struct {
	// Files is the workspace size in files.
	Files int
	// FileSize is each file's size in bytes.
	FileSize int
	// Edited is how many files the second phase touches; 0 derives 1% of
	// Files (at least one).
	Edited int
	// Seed drives the workload generator.
	Seed int64
}

func (c TreeSyncConfig) withDefaults() TreeSyncConfig {
	if c.Files <= 0 {
		c.Files = 10000
	}
	if c.FileSize <= 0 {
		c.FileSize = 256
	}
	if c.Edited <= 0 {
		c.Edited = c.Files / 100
		if c.Edited == 0 {
			c.Edited = 1
		}
	}
	if c.Seed == 0 {
		c.Seed = 1987
	}
	return c
}

// TreeSyncFigure holds the two cells plus the headline reductions.
type TreeSyncFigure struct {
	PerFile ServerBenchResult
	Tree    ServerBenchResult
}

// MessageReduction is the headline number: per-file wire messages per
// tree-sync wire message for the same reconciliation.
func (f *TreeSyncFigure) MessageReduction() float64 {
	if f.Tree.WireMessages == 0 {
		return 0
	}
	return float64(f.PerFile.WireMessages) / float64(f.Tree.WireMessages)
}

// TimeReduction is elapsed virtual per-file sync time per tree-sync unit.
func (f *TreeSyncFigure) TimeReduction() float64 {
	if f.Tree.SyncVirtualMs == 0 {
		return 0
	}
	return f.PerFile.SyncVirtualMs / f.Tree.SyncVirtualMs
}

// RunTreeSync runs both cells. Labels mark the rows in BENCH_server.json:
// "treesync-perfile", "treesync-tree".
func RunTreeSync(cfg TreeSyncConfig) (*TreeSyncFigure, error) {
	cfg = cfg.withDefaults()
	fig := &TreeSyncFigure{}

	res, err := runTreeSyncCell(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("treesync perfile: %w", err)
	}
	res.Label = "treesync-perfile"
	fig.PerFile = res

	if res, err = runTreeSyncCell(cfg, false); err != nil {
		return nil, fmt.Errorf("treesync tree: %w", err)
	}
	res.Label = "treesync-tree"
	fig.Tree = res
	return fig, nil
}

// countingConn wraps a wire.Conn and counts frames and payload bytes in both
// directions. It deliberately exposes only the base interface — optional
// capabilities (buffer reuse, scheduled sends) are hidden, so both cells run
// the same plain copy path and the counts stay comparable.
type countingConn struct {
	inner    wire.Conn
	messages int64
	bytes    int64
}

func (c *countingConn) Send(payload []byte) error {
	c.messages++
	c.bytes += int64(len(payload))
	return c.inner.Send(payload)
}

func (c *countingConn) Recv() ([]byte, error) {
	buf, err := c.inner.Recv()
	if err == nil {
		c.messages++
		c.bytes += int64(len(buf))
	}
	return buf, err
}

func (c *countingConn) Close() error { return c.inner.Close() }

// runTreeSyncCell primes a monorepo onto a fresh server, edits a sparse
// subset, and measures the reconciling Sync. perFile selects the classic
// one-notify-per-file strategy; otherwise the tree walk runs.
func runTreeSyncCell(cfg TreeSyncConfig, perFile bool) (ServerBenchResult, error) {
	res := ServerBenchResult{
		Transport: "netsim",
		Sessions:  1,
		FileSize:  cfg.FileSize,
	}
	fail := func(err error) (ServerBenchResult, error) { return res, err }

	nw := netsim.New()
	serverHost := nw.Host("super")
	ws := nw.Host("ws0")
	nw.Connect(ws, serverHost, netsim.ARPANET)
	lst, err := serverHost.Listen(1)
	if err != nil {
		return fail(err)
	}
	defer lst.Close()

	scfg := server.Defaults("bench")
	scfg.Clock = serverHost
	srv := server.New(scfg)
	go func() { _ = srv.Serve(server.AcceptorFunc(func() (wire.Conn, error) { return lst.Accept() })) }()
	defer srv.Close()

	universe := naming.NewUniverse("bench")
	universe.AddHost("ws0")
	gen := workload.NewGenerator(cfg.Seed)
	files := gen.Monorepo(cfg.Files, cfg.FileSize)
	const root = "/u/u0/src"
	for i := range files {
		if err := universe.WriteFile("ws0", "/u/u0/"+files[i].Path, files[i].Content); err != nil {
			return fail(err)
		}
	}

	raw, err := ws.Dial("super", 1)
	if err != nil {
		return fail(err)
	}
	conn := &countingConn{inner: raw}
	cl, err := client.Connect(context.Background(), conn, client.Config{
		User:        "u0",
		Universe:    universe,
		Host:        "ws0",
		Env:         env.Default("u0"),
		Clock:       ws,
		PerFileSync: perFile,
	})
	if err != nil {
		return fail(err)
	}
	defer cl.Close()
	wsp := cl.Workspace(root)

	// Phase 1: prime. Both cells upload the whole tree; the cost is not
	// measured — the figure is about reconciling an established workspace.
	if _, err := wsp.Sync(context.Background()); err != nil {
		return fail(fmt.Errorf("prime sync: %w", err))
	}

	// Phase 2: sparse edits, then the measured reconciliation.
	for _, i := range gen.SparseEdit(cfg.Files, cfg.Edited) {
		files[i].Content = gen.Modify(files[i].Content, 20, workload.EditReplace)
		if err := universe.WriteFile("ws0", "/u/u0/"+files[i].Path, files[i].Content); err != nil {
			return fail(err)
		}
	}
	msgs0, bytes0 := conn.messages, conn.bytes
	t0 := ws.Now()
	stats, err := wsp.Sync(context.Background())
	if err != nil {
		return fail(fmt.Errorf("reconcile sync: %w", err))
	}
	res.SyncVirtualMs = ms(ws.Now() - t0)
	res.WireMessages = conn.messages - msgs0
	res.SyncWireBytes = conn.bytes - bytes0
	res.SyncFiles = stats.Files
	res.SyncChanged = stats.Changed
	res.SyncRoundTrips = stats.RoundTrips
	return res, nil
}

// Render prints the figure as a table plus the headline reductions.
func (f *TreeSyncFigure) Render(w io.Writer) {
	fmt.Fprintf(w, "Tree sync: %d files x %dB, %d edited (1 session, netsim ARPANET)\n",
		f.Tree.SyncFiles, f.Tree.FileSize, f.Tree.SyncChanged)
	fmt.Fprintf(w, "%-18s %10s %12s %12s %8s %12s\n",
		"cell", "messages", "wire bytes", "virtual ms", "rtrips", "announced")
	for _, row := range []struct {
		name string
		r    ServerBenchResult
	}{
		{"perfile", f.PerFile},
		{"tree", f.Tree},
	} {
		fmt.Fprintf(w, "%-18s %10d %12d %12.1f %8d %12d\n",
			row.name, row.r.WireMessages, row.r.SyncWireBytes,
			row.r.SyncVirtualMs, row.r.SyncRoundTrips, row.r.SyncChanged)
	}
	fmt.Fprintf(w, "message reduction vs per-file: %.1fx\n", f.MessageReduction())
	fmt.Fprintf(w, "time reduction vs per-file: %.1fx\n", f.TimeReduction())
}
