package server

// Directory reconciliation, server side. The server's summary of
// a workspace is built from its own directory and cache: the files of the
// workspace are the ids ever interned beneath the root, and each leaf hash
// is the cached manifest's fingerprint — computed with the same chunking
// parameters the client splits with, so identical content yields identical
// leaves. Files the cache has evicted are simply absent from the summary;
// the client sees them as divergent and renotifies, and the pulls repair the
// cache. The summary is a snapshot: it is built when a TREE_HEAD arrives and
// consulted for the TREE_DIFF walk that follows, so one walk sees one
// consistent tree even while other sessions keep writing.

import (
	"fmt"
	"log/slog"

	"shadowedit/internal/chunk"
	"shadowedit/internal/tree"
	"shadowedit/internal/wire"
)

// buildTree summarizes the server's view of the workspace under root (a
// canonical "host:/abs/dir" file-id prefix) in the session's domain.
func (ss *session) buildTree(root string) *tree.Tree {
	rels, ids := ss.srv.dir.IDsUnder(ss.domain, root)
	leaves := make([]tree.Leaf, 0, len(rels))
	for i, rel := range rels {
		if _, fp, ok := ss.srv.cache.Fingerprint(ids[i]); ok {
			leaves = append(leaves, tree.Leaf{Path: rel, Hash: fp})
		}
	}
	return tree.Build(leaves)
}

// handleTreeHead opens a reconciliation walk: build this side's summary,
// report InSync when the roots already match, and otherwise answer with the
// root directory's listing so the first level of the walk costs no extra
// round trip.
func (ss *session) handleTreeHead(m *wire.TreeHead, tc wire.TraceContext) error {
	ss.srv.counters.AddControl(0)
	sp := ss.srv.cfg.Obs.StartSpan(tc, "server.tree-head").SetSession(ss.id)
	defer sp.Finish()
	t := ss.buildTree(m.Root)
	ss.mu.Lock()
	ss.trees[m.Root] = t
	ss.mu.Unlock()
	if ss.srv.cfg.Obs.LogEnabled(slog.LevelDebug) {
		ss.srv.cfg.Obs.Log(slog.LevelDebug, "tree head",
			slog.Uint64("session", ss.id), slog.String("root", m.Root),
			slog.Int("client_files", int(m.Count)), slog.Int("server_files", t.Count()))
	}
	if t.Root() == chunk.Hash(m.Hash) {
		sp.Annotate("in-sync")
		return ss.sendTraced(&wire.TreeDiff{Root: m.Root, InSync: true}, tc)
	}
	sp.Annotate("divergent")
	reply := &wire.TreeDiff{Root: m.Root}
	appendListing(reply, t, "")
	return ss.sendTraced(reply, tc)
}

// handleTreeDiff answers one step of the walk: the listings of every
// directory the client asked for. A directory this side's summary lacks
// comes back as an empty listing — "nothing beneath it here".
func (ss *session) handleTreeDiff(m *wire.TreeDiff, tc wire.TraceContext) error {
	ss.srv.counters.AddControl(0)
	sp := ss.srv.cfg.Obs.StartSpan(tc, "server.tree-diff").SetSession(ss.id)
	defer sp.Finish()
	ss.mu.Lock()
	t := ss.trees[m.Root]
	ss.mu.Unlock()
	if t == nil {
		// A walk step without a preceding head (reconnect mid-walk):
		// summarize now. The client compares hashes either way.
		t = ss.buildTree(m.Root)
		ss.mu.Lock()
		ss.trees[m.Root] = t
		ss.mu.Unlock()
	}
	reply := &wire.TreeDiff{Root: m.Root, Dirs: make([]wire.TreeDir, 0, len(m.Want))}
	for _, dir := range m.Want {
		appendListing(reply, t, dir)
	}
	return ss.sendTraced(reply, tc)
}

// appendListing appends one directory's listing (possibly empty) to a
// TreeDiff reply.
func appendListing(reply *wire.TreeDiff, t *tree.Tree, dir string) {
	es, _ := t.Entries(dir)
	td := wire.TreeDir{Path: dir, Entries: make([]wire.TreeEntry, len(es))}
	for i, e := range es {
		td.Entries[i] = wire.TreeEntry{Name: e.Name, Hash: e.Hash, Dir: e.Dir}
	}
	reply.Dirs = append(reply.Dirs, td)
}

// handleBatchNotify absorbs the walk's outcome: one frame carrying every
// divergent file. Each notify is answered exactly like a per-file notify
// with one difference — the client is actively waiting for the whole batch
// to be acknowledged, so pulls bypass the lazy/load-aware deferral policy,
// and a file whose cached version is already current is acknowledged
// immediately (the per-file path stays silent there, because a per-file
// notifier never waits). Removed files are dropped from the cache so the
// next walk's summaries agree.
//
// The pulls themselves are windowed, not fired here: a batch can name a
// whole workspace, and this dispatch loop is the only reader of the
// connection — flooding the downlink with pulls while the client floods the
// uplink with answers nobody is reading would wedge both directions.
func (ss *session) handleBatchNotify(m *wire.BatchNotify, tc wire.TraceContext) error {
	ss.srv.counters.AddControl(0)
	sp := ss.srv.cfg.Obs.StartSpan(tc, "server.batch-notify").SetSession(ss.id)
	defer sp.Finish()
	if sp != nil {
		sp.Annotate(fmt.Sprintf("%d notifies, %d removed", len(m.Notifies), len(m.Removed)))
	}
	ss.mu.Lock()
	for _, ne := range m.Notifies {
		ss.batchQueue = append(ss.batchQueue, batchEntry{ne: ne, tc: tc})
	}
	ss.mu.Unlock()
	evicted := 0
	for _, ref := range m.Removed {
		if id, ok := ss.srv.dir.Lookup(ref); ok {
			if ss.srv.cache.Evict(id) {
				evicted++
			}
		}
	}
	// The session's summaries are stale the moment the batch lands (pulls
	// and evictions change the cache); drop them so the next walk starts
	// from a fresh snapshot.
	ss.mu.Lock()
	clear(ss.trees)
	ss.mu.Unlock()
	ss.srv.logf("session %d: batch notify: %d files, %d removed (%d evicted)",
		ss.id, len(m.Notifies), len(m.Removed), evicted)
	return ss.pumpBatch()
}

// batchPullWindow bounds how many batch pulls are outstanding at once. Well
// under the outbound queue depth and the transport's in-flight capacity, so
// the window can never wedge the pipe, but deep enough to keep a slow link's
// pull→answer pipeline full.
const batchPullWindow = 32

// batchEntry is one BATCH_NOTIFY file waiting for its windowed pull.
type batchEntry struct {
	ne wire.NotifyEntry
	tc wire.TraceContext
}

// batchArrived notes that a file's content landed (delta, full copy, or
// chunk manifest) and, if it was a batch pull, admits the next queued entry.
func (ss *session) batchArrived(ref wire.FileRef) error {
	ss.mu.Lock()
	idle := len(ss.batchInflight) == 0 && len(ss.batchQueue) == 0
	ss.mu.Unlock()
	if idle {
		return nil
	}
	id := ss.srv.dir.Intern(ref)
	ss.mu.Lock()
	delete(ss.batchInflight, id)
	ss.mu.Unlock()
	return ss.pumpBatch()
}

// pumpBatch issues queued batch pulls up to the window. Entries the cache
// already covers are acknowledged on the spot; the rest are pulled and
// acknowledged by the normal apply path when their content arrives.
func (ss *session) pumpBatch() error {
	for {
		ss.mu.Lock()
		if len(ss.batchQueue) == 0 || len(ss.batchInflight) >= batchPullWindow {
			ss.mu.Unlock()
			return nil
		}
		e := ss.batchQueue[0]
		ss.batchQueue = ss.batchQueue[1:]
		ss.mu.Unlock()

		id := ss.srv.dir.Intern(e.ne.File)
		if have, ok := ss.srv.cache.Version(id); ok && have >= e.ne.Version {
			// Already current: re-check waiting jobs (same race close as
			// pullFile's short circuit) and acknowledge so the client's
			// sync completion does not stall on a file that needs no
			// transfer.
			ss.srv.feedFromCache(id, e.ne.Version)
			if err := ss.sendTraced(&wire.FileAck{File: e.ne.File, Version: have}, e.tc); err != nil {
				return err
			}
			continue
		}
		if err := ss.pullFile(e.ne.File, e.ne.Version, e.tc); err != nil {
			return err
		}
		ss.mu.Lock()
		issued := ss.pulled[id] >= e.ne.Version
		if issued {
			// This session's own pull (new or already in flight) covers
			// the entry; its arrival opens the next window slot.
			ss.batchInflight[id] = struct{}{}
		}
		ss.mu.Unlock()
		if issued {
			continue
		}
		// pullFile sent nothing: either the content landed between the
		// check above and the pull (acknowledge now), or another session's
		// flight is fetching it — that arrival feeds jobs but not this
		// client's ack, a coalescing gap the client bounds with its sync
		// context.
		if have, ok := ss.srv.cache.Version(id); ok && have >= e.ne.Version {
			if err := ss.sendTraced(&wire.FileAck{File: e.ne.File, Version: have}, e.tc); err != nil {
				return err
			}
		}
	}
}
