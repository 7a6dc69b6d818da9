package client

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"shadowedit/internal/env"
	"shadowedit/internal/naming"
	"shadowedit/internal/netsim"
	"shadowedit/internal/server"
	"shadowedit/internal/wire"
)

// countConn wraps a wire.Conn and counts frames in both directions, so the
// tree walk's O(changed) promises can be asserted in frames rather than
// timings.
type countConn struct {
	inner  wire.Conn
	frames int
}

func (c *countConn) Send(payload []byte) error {
	c.frames++
	return c.inner.Send(payload)
}

func (c *countConn) Recv() ([]byte, error) {
	buf, err := c.inner.Recv()
	if err == nil {
		c.frames++
	}
	return buf, err
}

func (c *countConn) Close() error { return c.inner.Close() }

// wsRig is a client talking to a real server over a simulated LAN.
type wsRig struct {
	t        *testing.T
	cl       *Client
	universe *naming.Universe
	conn     *countConn
}

func newWorkspaceRig(t *testing.T, perFile bool) *wsRig {
	t.Helper()
	nw := netsim.New()
	srvHost := nw.Host("super")
	wsHost := nw.Host("ws")
	nw.Connect(wsHost, srvHost, netsim.LAN)
	lst, err := srvHost.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	scfg := server.Defaults("test")
	scfg.Clock = srvHost
	srv := server.New(scfg)
	go func() { _ = srv.Serve(server.AcceptorFunc(func() (wire.Conn, error) { return lst.Accept() })) }()
	t.Cleanup(func() { srv.Close(); _ = lst.Close() })

	universe := naming.NewUniverse("dom")
	universe.AddHost("ws")
	raw, err := wsHost.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}
	conn := &countConn{inner: raw}
	cl, err := Connect(context.Background(), conn, Config{
		User: "u", Universe: universe, Host: "ws",
		Env: env.Default("u"), Clock: wsHost, PerFileSync: perFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return &wsRig{t: t, cl: cl, universe: universe, conn: conn}
}

func (r *wsRig) write(p, content string) {
	r.t.Helper()
	if err := r.universe.WriteFile("ws", p, []byte(content)); err != nil {
		r.t.Fatal(err)
	}
}

func (r *wsRig) sync(ws *Workspace) SyncStats {
	r.t.Helper()
	stats, err := ws.Sync(context.Background())
	if err != nil {
		r.t.Fatal(err)
	}
	return stats
}

const wsRoot = "/u/u/proj"

func TestWorkspaceSyncEmpty(t *testing.T) {
	r := newWorkspaceRig(t, false)
	stats := r.sync(r.cl.Workspace(wsRoot))
	if stats.Files != 0 || stats.Changed != 0 || stats.Removed != 0 {
		t.Fatalf("empty workspace sync reported work: %+v", stats)
	}
}

func TestWorkspaceSyncUploadsAndConverges(t *testing.T) {
	r := newWorkspaceRig(t, false)
	r.write(wsRoot+"/a.f", "alpha\n")
	r.write(wsRoot+"/sub/b.f", "beta\n")
	ws := r.cl.Workspace(wsRoot)

	stats := r.sync(ws)
	if stats.Files != 2 || stats.Changed != 2 {
		t.Fatalf("first sync: want 2 files announced, got %+v", stats)
	}
	if stats.Mode != SyncTree {
		t.Fatalf("first sync mode = %v, want tree", stats.Mode)
	}

	// A second sync of an unchanged workspace is a head exchange and
	// nothing more: exactly two frames (TREE_HEAD out, TREE_DIFF back).
	before := r.conn.frames
	stats = r.sync(ws)
	if !stats.InSync || stats.Changed != 0 {
		t.Fatalf("identical resync not in sync: %+v", stats)
	}
	if got := r.conn.frames - before; got != 2 {
		t.Fatalf("identical resync used %d frames, want exactly 2", got)
	}
}

// TestWorkspaceResyncAllocatesNoFile: re-syncing an unchanged tree reads
// every file into the version store's one spare buffer, which an unchanged
// read goes back to, so the whole re-sync allocates less than the files
// weigh; reading each into a fresh buffer would allocate all of them.
func TestWorkspaceResyncAllocatesNoFile(t *testing.T) {
	r := newWorkspaceRig(t, false)
	const files = 50
	total := 0
	for i := 0; i < files; i++ {
		content := strings.Repeat(fmt.Sprintf("line of file %02d\n", i), 256+8*i) // 4–10 KiB
		r.write(fmt.Sprintf("%s/d%d/f%02d.dat", wsRoot, i%5, i), content)
		total += len(content)
	}
	ws := r.cl.Workspace(wsRoot)
	if stats := r.sync(ws); stats.Changed != files {
		t.Fatalf("first sync: %+v", stats)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats := r.sync(ws)
	runtime.ReadMemStats(&after)
	if !stats.InSync {
		t.Fatalf("unchanged re-sync not in sync: %+v", stats)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("re-syncing %d unchanged files (%d B) allocated %d B", files, total, got)
	if got >= uint64(total) {
		t.Fatalf("re-syncing %d unchanged files (%d B) allocated %d B", files, total, got)
	}
}

func TestWorkspaceSyncDeleteOneSide(t *testing.T) {
	r := newWorkspaceRig(t, false)
	r.write(wsRoot+"/keep.f", "keep\n")
	r.write(wsRoot+"/gone.f", "gone\n")
	ws := r.cl.Workspace(wsRoot)
	r.sync(ws)

	if err := r.universe.RemoveFile("ws", wsRoot+"/gone.f"); err != nil {
		t.Fatal(err)
	}
	stats := r.sync(ws)
	if stats.Removed != 1 || stats.Changed != 0 {
		t.Fatalf("delete sync: want 1 removed, 0 changed, got %+v", stats)
	}
	// The server evicted it: another sync has nothing left to reconcile.
	stats = r.sync(ws)
	if !stats.InSync {
		t.Fatalf("post-delete resync not in sync: %+v", stats)
	}
}

func TestWorkspaceSyncRename(t *testing.T) {
	r := newWorkspaceRig(t, false)
	r.write(wsRoot+"/old.f", "payload\n")
	ws := r.cl.Workspace(wsRoot)
	r.sync(ws)

	if err := r.universe.RemoveFile("ws", wsRoot+"/old.f"); err != nil {
		t.Fatal(err)
	}
	r.write(wsRoot+"/new.f", "payload\n")
	stats := r.sync(ws)
	if stats.Changed != 1 || stats.Removed != 1 {
		t.Fatalf("rename sync: want 1 changed + 1 removed, got %+v", stats)
	}
	stats = r.sync(ws)
	if !stats.InSync {
		t.Fatalf("post-rename resync not in sync: %+v", stats)
	}
}

func TestWorkspaceSyncOChangedFrames(t *testing.T) {
	// The property the walk promises: reconciling a big workspace costs
	// frames proportional to what changed, not to what exists. 10k files,
	// 10 edits — the per-file strategy would burn >10k frames here.
	const files, edits = 10000, 10
	r := newWorkspaceRig(t, false)
	for i := 0; i < files; i++ {
		r.write(fmt.Sprintf("%s/pkg%03d/f%02d.f", wsRoot, i/20, i%20), "v1\n")
	}
	ws := r.cl.Workspace(wsRoot)
	if stats := r.sync(ws); stats.Changed != files {
		t.Fatalf("prime announced %d files, want %d", stats.Changed, files)
	}

	for i := 0; i < edits; i++ {
		r.write(fmt.Sprintf("%s/pkg%03d/f%02d.f", wsRoot, i*50/20, (i*50)%20), "v2\n")
	}
	before := r.conn.frames
	stats := r.sync(ws)
	if stats.Changed != edits {
		t.Fatalf("sparse sync announced %d, want %d", stats.Changed, edits)
	}
	frames := r.conn.frames - before
	// Head exchange + a couple of walk levels + batch + per-edit
	// pull/answer/ack traffic. Generous bound, still ~two orders of
	// magnitude under per-file.
	if max := 20 + 10*edits; frames > max {
		t.Fatalf("sparse sync used %d frames for %d edits over %d files (want <= %d)",
			frames, edits, files, max)
	}
}

func TestWorkspaceSyncPerFileFallback(t *testing.T) {
	r := newWorkspaceRig(t, true)
	r.write(wsRoot+"/a.f", "one\n")
	r.write(wsRoot+"/b.f", "two\n")
	ws := r.cl.Workspace(wsRoot)

	stats := r.sync(ws)
	if stats.Mode != SyncPerFile {
		t.Fatalf("mode = %v, want per-file", stats.Mode)
	}
	if stats.Files != 2 || stats.Changed != 2 {
		t.Fatalf("per-file sync: %+v", stats)
	}

	// Unchanged resync announces every head again — the per-file strategy
	// cannot see that nothing diverged — but recommits nothing.
	stats = r.sync(ws)
	if stats.Changed != 0 || stats.InSync {
		t.Fatalf("per-file resync: %+v", stats)
	}

	r.write(wsRoot+"/a.f", "one more\n")
	stats = r.sync(ws)
	if stats.Changed != 1 {
		t.Fatalf("per-file edit sync: %+v", stats)
	}
	ref, err := r.universe.FileRef("ws", wsRoot+"/a.f")
	if err != nil {
		t.Fatal(err)
	}
	if v := r.cl.store.Acked(ref); v < 2 {
		t.Fatalf("edited file acked at v%d, want >= 2", v)
	}
}
