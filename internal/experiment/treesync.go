// Tree-sync figure: what workspace-scale Merkle reconciliation buys when a
// large tree has diverged only a little. Two cells run the same workload —
// a 10k-file monorepo primed onto the server, then 1% of files edited and
// the workspace re-synced over a slow simulated link:
//
//   - perfile: the classic path (client.Config.PerFileSync) — Sync announces every
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
	"shadowedit/internal/netsim"
	"shadowedit/internal/server"
	"shadowedit/internal/workload"
)

// treeSyncFileSize is each workspace file's size in bytes; one file in a
// hundred (at least one) is edited before the measured sync.
const treeSyncFileSize = 256

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

// RunTreeSync runs both cells on a workspace of files files. Labels mark the
// rows in BENCH_server.json: "treesync-perfile", "treesync-tree".
func RunTreeSync(files int, seed int64) (*TreeSyncFigure, error) {
	fig := &TreeSyncFigure{}
	res, err := runTreeSyncCell(files, seed, true)
	if err != nil {
		return nil, fmt.Errorf("treesync perfile: %w", err)
	}
	res.Label = "treesync-perfile"
	fig.PerFile = res

	if res, err = runTreeSyncCell(files, seed, false); err != nil {
		return nil, fmt.Errorf("treesync tree: %w", err)
	}
	res.Label = "treesync-tree"
	fig.Tree = res
	return fig, nil
}

// runTreeSyncCell primes a monorepo onto a fresh server, edits a sparse
// subset, and measures the reconciling Sync. perFile selects the classic
// one-notify-per-file strategy; otherwise the tree walk runs. The fleet is
// one session on a slow link; the workload is the workspace, not the
// session's data file, so the cell drives Sync itself instead of run.
func runTreeSyncCell(files int, seed int64, perFile bool) (ServerBenchResult, error) {
	res := ServerBenchResult{
		Transport: "netsim",
		Sessions:  1,
		FileSize:  treeSyncFileSize,
	}
	f, err := deploy(fleetSpec{
		transport: "netsim",
		link:      netsim.ARPANET,
		server:    server.Defaults("bench"),
		sessions:  1,
		content:   func(*fleetSession, int) []byte { return nil },
		client:    func(_ *fleetSession, cc *client.Config) { cc.PerFileSync = perFile },
	})
	if err != nil {
		return res, err
	}
	defer f.close()
	s := f.sessions[0]
	gen := workload.NewGenerator(seed)
	tree := gen.Monorepo(files, treeSyncFileSize)
	for i := range tree {
		if err := s.ws.WriteFile("/u/u0/"+tree[i].Path, tree[i].Content); err != nil {
			return res, err
		}
	}
	if err := f.connect(); err != nil {
		return res, err
	}
	wsp := s.cl.Workspace("/u/u0/src")

	// Phase 1: prime. Both cells upload the whole tree; the cost is not
	// measured — the figure is about reconciling an established workspace.
	if _, err := wsp.Sync(context.Background()); err != nil {
		return res, fmt.Errorf("prime sync: %w", err)
	}

	// Phase 2: sparse edits, then the measured reconciliation: every frame
	// the link carries in either direction while Sync runs, and its elapsed
	// virtual time.
	for _, i := range gen.SparseEdit(files, max(files/100, 1)) {
		tree[i].Content = gen.Modify(tree[i].Content, 20, workload.EditReplace)
		if err := s.ws.WriteFile("/u/u0/"+tree[i].Path, tree[i].Content); err != nil {
			return res, err
		}
	}
	link, _ := f.cluster.Network.LinkBetween(s.host, f.names[0])
	bytes0, msgs0 := link.Stats()
	t0 := s.ws.Host().Now()
	stats, err := wsp.Sync(context.Background())
	if err != nil {
		return res, fmt.Errorf("reconcile sync: %w", err)
	}
	res.SyncVirtualMs = ms(s.ws.Host().Now() - t0)
	bytes1, msgs1 := link.Stats()
	res.WireMessages = msgs1 - msgs0
	res.SyncWireBytes = bytes1 - bytes0
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
