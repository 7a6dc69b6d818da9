package client

// Workspace-scale synchronization. A Workspace is a directory
// handle on the client: Sync reconciles everything beneath it with the
// server in O(difference) communication by exchanging Merkle-style tree
// summaries, and Submit resolves job paths relative to the synced root. The
// per-file CommitAndNotify remains the degenerate single-file case of the
// same machinery.

import (
	"context"
	"fmt"
	"sort"

	"shadowedit/internal/tree"
	"shadowedit/internal/wire"
)

// NotifyResult reports what one commit-and-notify did: the file's protocol
// reference, the version now at the head of the local store, and how many
// bytes the notify frame occupied on the wire — 0 when the content was
// unchanged and nothing was sent.
type NotifyResult struct {
	File      wire.FileRef
	Version   uint64
	WireBytes int
}

// Changed reports whether the commit produced a new version (and therefore
// a notify on the wire).
func (r NotifyResult) Changed() bool { return r.WireBytes > 0 }

// SyncMode names the reconciliation strategy a Sync used.
type SyncMode string

const (
	// SyncTree is Merkle-tree reconciliation: O(difference) messages.
	SyncTree SyncMode = "tree"
	// SyncPerFile is one notify per file, used when Config.PerFileSync
	// asks for it.
	SyncPerFile SyncMode = "per-file"
)

// SyncStats summarizes one Sync call.
type SyncStats struct {
	// Files is how many local files the workspace holds.
	Files int
	// Changed is how many files were announced to the server (divergent
	// under tree sync; locally recommitted under per-file sync).
	Changed int
	// Removed is how many server-side files the workspace no longer has,
	// announced for eviction (tree sync only — per-file sync cannot see
	// them).
	Removed int
	// RoundTrips counts the synchronous exchanges the tree walk needed
	// (head + one per divergent level); 0 under per-file sync.
	RoundTrips int
	// InSync reports that the summary roots matched and nothing moved.
	InSync bool
	// Mode is the strategy used.
	Mode SyncMode
}

// Workspace is a tree-level handle on a local directory. Obtain one with
// Client.Workspace; the zero value is not usable.
type Workspace struct {
	c    *Client
	root string
}

// Workspace returns a handle on the directory tree rooted at root (a local
// path on the client's host, resolved through the same mounts and symlinks
// as any file name). The handle is cheap; the directory is enumerated at
// each Sync, so files created after the handle are picked up.
func (c *Client) Workspace(root string) *Workspace {
	return &Workspace{c: c, root: root}
}

// Root returns the workspace's root path as given.
func (w *Workspace) Root() string { return w.root }

// treeActive reports whether Sync reconciles by tree walk rather than by
// announcing every head (the baseline `shadow-bench -fig treesync` measures
// the walk against).
func (c *Client) treeActive() bool { return !c.cfg.PerFileSync }

// syncFile is one workspace file's commit outcome, keyed by relative path.
type syncFile struct {
	ref     wire.FileRef
	version uint64
	size    int64
	sum     uint32
	changed bool
}

// Sync reconciles the workspace with the server. Every file under the root
// is committed to the version store first (the local tree is always the
// truth); then client and server compare Merkle summaries and walk only
// divergent subtrees, so a 10k-file workspace with a handful of edits costs
// a handful of frames. The call returns once the server has acknowledged
// every file it was told about — afterwards a Submit's inputs are already
// cached server-side. With Config.PerFileSync it is the classic resync
// instead: one notify per file, the server pulling what it is missing;
// acknowledgements are then awaited only for files this call recommitted.
//
// Sync runs until done or ctx expires; on a slow link bound it with a
// deadline. Files deleted locally are announced for server-side eviction
// under tree sync.
func (w *Workspace) Sync(ctx context.Context) (SyncStats, error) {
	c := w.c
	rootName, rels, err := c.cfg.Universe.FilesUnder(c.cfg.Host, w.root)
	if err != nil {
		return SyncStats{}, fmt.Errorf("client: sync %s: %w", w.root, err)
	}
	rootID := rootName.String()
	domain := c.cfg.Universe.Domain()

	// Commit the whole tree locally and build its summary.
	files := make(map[string]syncFile, len(rels))
	leaves := make([]tree.Leaf, 0, len(rels))
	for _, rel := range rels {
		ref := wire.FileRef{Domain: domain, FileID: rootID + "/" + rel}
		v, changed, err := c.store.CommitRead(ref, 0, func(dst []byte) ([]byte, error) {
			return c.cfg.Universe.ReadFileInto(dst, rootName.Host, rootName.Path+"/"+rel)
		})
		if err != nil {
			return SyncStats{}, fmt.Errorf("client: sync %s: %w", rel, err)
		}
		_, m, err := c.store.GetManifest(ref, v.Number)
		if err != nil {
			return SyncStats{}, fmt.Errorf("client: sync %s: %w", rel, err)
		}
		files[rel] = syncFile{
			ref:     ref,
			version: v.Number,
			size:    int64(len(v.Content)),
			sum:     v.Sum,
			changed: changed,
		}
		leaves = append(leaves, tree.Leaf{Path: rel, Hash: m.Fingerprint()})
	}
	stats := SyncStats{Files: len(rels)}

	if !c.treeActive() {
		return c.syncPerFile(ctx, rels, files, stats)
	}
	return c.syncTree(ctx, rootID, tree.Build(leaves), files, stats)
}

// syncTree is the tree walk: head exchange, divergence walk, one batched
// notify, then ack completion.
func (c *Client) syncTree(ctx context.Context, rootID string, t *tree.Tree, files map[string]syncFile, stats SyncStats) (SyncStats, error) {
	stats.Mode = SyncTree
	head := &wire.TreeHead{Root: rootID, Hash: t.Root(), Count: uint32(t.Count())}
	c.counters.AddControl(0)
	reply, err := c.roundTrip(ctx, head)
	if err != nil {
		return stats, err
	}
	td, ok := reply.(*wire.TreeDiff)
	if !ok {
		return stats, replyError(reply)
	}
	stats.RoundTrips++
	if td.InSync {
		stats.InSync = true
		return stats, nil
	}

	// Walk: each reply's listings are diffed against the local summary;
	// subtrees that differ on both sides feed the next request, subtrees
	// only we have are enumerated locally, subtrees only the server has
	// are fetched to enumerate the removals beneath them.
	var changed, removed []string
	process := func(dirs []wire.TreeDir) (want []string) {
		for _, d := range dirs {
			local, _ := t.Entries(d.Path)
			remote := make([]tree.Entry, len(d.Entries))
			for i, e := range d.Entries {
				remote[i] = tree.Entry{Name: e.Name, Hash: e.Hash, Dir: e.Dir}
			}
			delta := tree.Diff(d.Path, local, remote)
			changed = append(changed, delta.ChangedFiles...)
			removed = append(removed, delta.RemovedFiles...)
			for _, lo := range delta.LocalOnly {
				changed = append(changed, t.FilesUnder(lo)...)
			}
			want = append(want, delta.WalkBoth...)
			want = append(want, delta.RemoteOnly...)
		}
		return want
	}
	want := process(td.Dirs)
	for len(want) > 0 {
		c.counters.AddControl(0)
		reply, err := c.roundTrip(ctx, &wire.TreeDiff{Root: rootID, Want: want})
		if err != nil {
			return stats, err
		}
		td, ok := reply.(*wire.TreeDiff)
		if !ok {
			return stats, replyError(reply)
		}
		stats.RoundTrips++
		want = process(td.Dirs)
	}

	sort.Strings(changed)
	batch := &wire.BatchNotify{
		Notifies: make([]wire.NotifyEntry, 0, len(changed)),
		Removed:  make([]wire.FileRef, 0, len(removed)),
	}
	await := make(map[wire.FileRef]uint64, len(changed))
	for _, rel := range changed {
		f := files[rel]
		batch.Notifies = append(batch.Notifies, wire.NotifyEntry{
			File: f.ref, Version: f.version, Size: f.size, Sum: f.sum,
		})
		await[f.ref] = f.version
	}
	domain := c.cfg.Universe.Domain()
	for _, rel := range removed {
		batch.Removed = append(batch.Removed, wire.FileRef{Domain: domain, FileID: rootID + "/" + rel})
	}
	stats.Changed = len(batch.Notifies)
	stats.Removed = len(batch.Removed)
	if len(batch.Notifies) == 0 && len(batch.Removed) == 0 {
		return stats, nil
	}
	// The batch begins a traced "sync" cycle like a notify does; the
	// server's pulls and applies join it.
	sp := c.cfg.Obs.StartTrace("sync")
	c.counters.AddControl(0)
	err = c.sendTraced(batch, sp.Context())
	if sp != nil {
		sp.Finish()
		c.cfg.Obs.EndTrace(sp.Context())
	}
	if err != nil {
		return stats, err
	}
	return stats, c.awaitAcks(ctx, await)
}

// syncPerFile is the baseline: announce every head (the server pulls
// whatever it is missing, exactly as after a reconnect), then wait for the
// files this call recommitted — the only ones the server is guaranteed to
// pull and acknowledge.
//
// Changed announcements are windowed: every notify of new content provokes
// a pull, and the read loop — the connection's only receiver — blocks
// sending the answers, so an unbounded stream of provoking notifies can
// wedge both directions of the pipe against a server that has stopped
// reading. Flushing acks every perFileWindow changed files keeps at most a
// window of pull traffic in flight. Unchanged notifies provoke nothing and
// flow freely.
func (c *Client) syncPerFile(ctx context.Context, rels []string, files map[string]syncFile, stats SyncStats) (SyncStats, error) {
	const perFileWindow = 32
	stats.Mode = SyncPerFile
	await := make(map[wire.FileRef]uint64)
	for _, rel := range rels {
		f := files[rel]
		n := &wire.Notify{File: f.ref, Version: f.version, Size: f.size, Sum: f.sum}
		c.counters.AddControl(0)
		if err := c.send(n); err != nil {
			return stats, err
		}
		if f.changed {
			stats.Changed++
			await[f.ref] = f.version
			if len(await) >= perFileWindow {
				if err := c.awaitAcks(ctx, await); err != nil {
					return stats, err
				}
			}
		}
	}
	return stats, c.awaitAcks(ctx, await)
}

// awaitAcks blocks until the store has acknowledgements at or above the
// wanted version for every listed file. The read loop signals ackSignal
// after each FileAck lands in the store (store first, signal second — no
// lost wakeups), so the scan shrinks as acks arrive. want is consumed.
func (c *Client) awaitAcks(ctx context.Context, want map[wire.FileRef]uint64) error {
	for {
		for ref, v := range want {
			if c.store.Acked(ref) >= v {
				delete(want, ref)
			}
		}
		if len(want) == 0 {
			return nil
		}
		select {
		case <-c.ackSignal:
		case <-ctx.Done():
			return ctxErr("sync", ctx.Err())
		case <-c.done:
			return c.sessionErr()
		}
	}
}

// Submit sends a job in the workspace's terms: script and data paths are
// resolved relative to the root (absolute paths pass through), so a caller
// that synced a tree submits with the same names it synced. Options are the
// same as Client.Submit.
func (w *Workspace) Submit(ctx context.Context, scriptPath string, dataPaths []string, opts SubmitOptions) (uint64, error) {
	data := make([]string, len(dataPaths))
	for i, p := range dataPaths {
		data[i] = w.join(p)
	}
	return w.c.Submit(ctx, w.join(scriptPath), data, opts)
}

// join anchors a workspace-relative path at the root.
func (w *Workspace) join(p string) string {
	if len(p) > 0 && p[0] == '/' {
		return p
	}
	return w.root + "/" + p
}
