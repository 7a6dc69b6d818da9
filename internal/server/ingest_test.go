package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"shadowedit/internal/chunk"
	"shadowedit/internal/core"
	"shadowedit/internal/diff"
	"shadowedit/internal/jobs"
	"shadowedit/internal/netsim"
	"shadowedit/internal/obs"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// One invariant over every way a file version reaches the cache. A job is
// waiting for version 2 of a file; the source — the client, or the ring owner
// at the far end of a link — answers the pull by one of the seven routes, with
// or without a fault; a correct client then answers whatever recovery the
// server drives. However that goes, the job runs on the right bytes and
// nothing of the fetch stays behind: no assembly, no open pull or pull span,
// no flight, no chunk flight, no waiting job, no parked peer — and once the
// files are evicted the chunk store is empty, so no reference leaked.

type ingestRoute int

const (
	routeFull ingestRoute = iota
	routeDelta
	routeManifest     // every chunk inline
	routeManifestGaps // nothing inline: CHUNK_REQ / CHUNK_DATA
	routePeerDelta
	routePeerChunk     // every chunk already resident
	routePeerChunkGaps // CHUNK_REQ / CHUNK_DATA on the link
)

var routeNames = [...]string{"FILE_FULL", "FILE_DELTA", "FILE_MANIFEST", "FILE_MANIFEST+gaps", "PEER_DELTA", "PEER_CHUNK", "PEER_CHUNK+gaps"}

func (r ingestRoute) peer() bool     { return r >= routePeerDelta }
func (r ingestRoute) delta() bool    { return r == routeDelta || r == routePeerDelta }
func (r ingestRoute) manifest() bool { return !r.delta() && r != routeFull }
func (r ingestRoute) gaps() bool     { return r == routeManifestGaps || r == routePeerChunkGaps }

type ingestFault int

const (
	faultNone         ingestFault = iota
	faultStaleBase                // the delta's base left the cache while the pull was out
	faultChecksum                 // whole-file sum wrong (full, manifest) or delta corrupt
	faultChunkBytes               // a CHUNK_DATA blob that does not hash to its address
	faultIncomplete               // CHUNK_DATA missing a requested chunk
	faultLenLie                   // manifest refs misstate chunk lengths
	faultSuperseded               // a newer manifest lands while gaps are being fetched
	faultSourceDies               // the source's connection drops mid-fetch
	faultDeclined                 // the owner answers negatively
	faultSecondAnswer             // a second session of the client answers with the same manifest
)

var faultNames = [...]string{"success", "stale-base", "checksum-mismatch", "chunk-hash-mismatch", "incomplete-chunk-data", "len-lie", "superseded", "source-dies", "declined", "second-answer"}

// applies reports whether the fault can happen on the route at all.
func (f ingestFault) applies(r ingestRoute) bool {
	switch f {
	case faultStaleBase:
		return r.delta()
	case faultChunkBytes, faultIncomplete, faultSuperseded:
		return r.gaps()
	case faultLenLie:
		return r.manifest()
	case faultDeclined:
		return r == routePeerDelta
	case faultSecondAnswer:
		return r == routeManifestGaps
	}
	return true
}

// ingestRig is a server on a two-member ring, a wire-level client, and the
// test standing in for the other member: the server's link dials a listener
// the test accepts on, so the test scripts the owner's every answer.
type ingestRig struct {
	srv      *Server
	ws       *netsim.Host
	conn     *netsim.Conn // the client's current connection
	ownerLst *netsim.Listener
}

func newIngestRig(t *testing.T) *ingestRig {
	t.Helper()
	nw := netsim.New()
	super, ws, other := nw.Host("super"), nw.Host("ws"), nw.Host("other")
	nw.Connect(ws, super, netsim.LAN)
	nw.Connect(super, other, netsim.LAN)
	lst, err := super.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	ownerLst, err := other.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults("super")
	cfg.Obs = obs.New(nil, nil)
	cfg.Obs.SetTracer(trace.New(trace.Config{})) // so pull spans exist to leak
	srv := New(cfg)
	srv.JoinCluster(ClusterSpec{
		Instance: "super",
		Members:  []string{"super", "other"},
		Dial:     func(string) (wire.Conn, error) { return super.Dial("other", 1) },
	})
	go func() {
		_ = srv.Serve(AcceptorFunc(func() (wire.Conn, error) { return lst.Accept() }))
	}()
	t.Cleanup(func() {
		_ = lst.Close()
		_ = ownerLst.Close()
		srv.Close()
	})
	g := &ingestRig{srv: srv, ws: ws, ownerLst: ownerLst}
	g.connect(t)
	return g
}

// connect (re)attaches the client as u@ws.
func (g *ingestRig) connect(t *testing.T) {
	t.Helper()
	conn, err := g.ws.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	g.conn = conn
	sendOn(t, conn, &wire.Hello{Protocol: wire.ProtocolVersion, User: "u", Domain: "d", ClientHost: "ws"})
	if m := recvWithin(t, conn, 5*time.Second); m.Kind() != wire.KindHelloOK {
		t.Fatalf("hello reply = %#v", m)
	}
}

// acceptOwner plays the owner's half of the link handshake.
func (g *ingestRig) acceptOwner(t *testing.T) *netsim.Conn {
	t.Helper()
	conn, err := g.ownerLst.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if m := recvWithin(t, conn, 5*time.Second); m.Kind() != wire.KindHello {
		t.Fatalf("link opened with %#v, want HELLO", m)
	}
	sendOn(t, conn, &wire.HelloOK{Session: 1, ServerName: "other", Protocol: wire.ProtocolVersion})
	if m := recvWithin(t, conn, 5*time.Second); m.Kind() != wire.KindPeerHello {
		t.Fatalf("link followed HELLO_OK with %#v, want PEER_HELLO", m)
	}
	return conn
}

// refOwnedBy finds a file name the ring places on (or off) this server.
func (g *ingestRig) refOwnedBy(t *testing.T, self bool, tag string) wire.FileRef {
	t.Helper()
	for i := 0; i < 1000; i++ {
		ref := wire.FileRef{Domain: "d", FileID: fmt.Sprintf("ws:/u/%s%d.dat", tag, i)}
		if g.srv.ownsFile(ref) == self {
			return ref
		}
	}
	t.Fatal("ring never placed a file where the test needs it")
	return wire.FileRef{}
}

// upload installs a version from the client, unsolicited.
func (g *ingestRig) upload(t *testing.T, ref wire.FileRef, version uint64, content []byte) {
	t.Helper()
	sendOn(t, g.conn, &wire.FileFull{File: ref, Version: version, Content: content, Sum: diff.Checksum(content)})
	if ack, ok := recvWithin(t, g.conn, 5*time.Second).(*wire.FileAck); !ok || ack.Version != version {
		t.Fatalf("upload ack = %#v", ack)
	}
}

// textContent is n bytes of seeded lines: big enough for several chunks, and
// line-structured so a delta between two variants is small.
func textContent(seed, n int) []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, "%06d the quick brown fox %x jumps over %x\n", i, (i+seed)*2654435761, i*40503+seed)
	}
	return b.Bytes()
}

// edited rewrites a few lines in the middle of content.
func edited(content []byte, mark string) []byte {
	out := append([]byte(nil), content...)
	copy(out[len(out)/2:], "EDIT "+mark+" ")
	copy(out[len(out)/3:], "EDIT "+mark+" ")
	return out
}

func TestIngestRoutesLeaveNothingBehind(t *testing.T) {
	for r := routeFull; r <= routePeerChunkGaps; r++ {
		for f := faultNone; f <= faultSecondAnswer; f++ {
			if !f.applies(r) {
				continue
			}
			t.Run(routeNames[r]+"/"+faultNames[f], func(t *testing.T) { runIngest(t, r, f) })
		}
	}
}

func runIngest(t *testing.T, route ingestRoute, fault ingestFault) {
	g := newIngestRig(t)
	ref := g.refOwnedBy(t, !route.peer(), "f")
	id := g.srv.dir.Intern(ref)
	base := textContent(1, 24<<10)
	target := edited(base, "two")
	newer := edited(target, "three")
	head, headVer := target, uint64(2) // what a correct client holds

	// Prime: the delta routes need their base cached; the all-resident
	// PEER_CHUNK routes need the chunks to be here already, under another
	// file's name.
	if route.delta() {
		g.upload(t, ref, 1, base)
	}
	if route == routePeerChunk {
		g.upload(t, g.refOwnedBy(t, true, "twin"), 1, target)
	}
	if route == routePeerChunkGaps && fault == faultSuperseded {
		g.upload(t, g.refOwnedBy(t, true, "twin"), 1, newer)
	}

	// A job needs version 2. The submit is traced so the pull gets a span.
	script := []byte("checksum in\n")
	if err := wire.SendTraced(g.conn, &wire.Submit{Script: script,
		Inputs: []wire.JobInput{{File: ref, Version: 2, As: "in"}}}, wire.TraceContext{TraceID: 77, SpanID: 1}); err != nil {
		t.Fatal(err)
	}
	ok, isOK := recvWithin(t, g.conn, 5*time.Second).(*wire.SubmitOK)
	if !isOK {
		t.Fatalf("submit reply = %#v", ok)
	}

	// The pull reaches the source.
	src := g.conn
	if route.peer() {
		src = g.acceptOwner(t)
		if pn, ok := recvWithin(t, src, 5*time.Second).(*wire.PeerNotify); !ok || pn.WantVersion != 2 {
			t.Fatalf("owner received %#v, want PEER_NOTIFY for v2", pn)
		}
	} else if p, ok := recvWithin(t, src, 5*time.Second).(*wire.Pull); !ok || p.WantVersion != 2 {
		t.Fatalf("client received %#v, want PULL for v2", p)
	}
	die := func() {
		before := g.srv.SessionCount()
		_ = src.Close()
		eventually(t, "dead source's session unregistered", func() bool { return g.srv.SessionCount() < before })
		if !route.peer() {
			g.connect(t) // the same user comes back; its hello re-pulls
		}
	}

	// The source answers by the route, with the fault.
	switch {
	case fault == faultSourceDies && !route.gaps():
		die()
	case route == routeFull:
		ff := &wire.FileFull{File: ref, Version: 2, Content: target, Sum: diff.Checksum(target)}
		if fault == faultChecksum {
			ff.Sum++
		}
		sendOn(t, src, ff)
	case route.delta():
		if fault == faultStaleBase {
			g.srv.cache.Evict(id)
		}
		d, err := diff.Compute(diff.HuntMcIlroy, base, target)
		if err != nil {
			t.Fatal(err)
		}
		enc := d.Encode()
		if fault == faultChecksum {
			enc = []byte("garbage")
		}
		switch {
		case route == routeDelta:
			sendOn(t, src, &wire.FileDelta{File: ref, BaseVersion: 1, Version: 2, Encoded: enc})
		case fault == faultDeclined:
			sendOn(t, src, &wire.PeerDelta{File: ref})
		default:
			sendOn(t, src, &wire.PeerDelta{File: ref, BaseVersion: 1, Version: 2, Encoded: enc})
		}
	default: // the manifest routes
		fm, payload := manifestFor(ref, 2, target)
		if len(fm.Chunks) < 3 {
			t.Fatalf("content splits into %d chunks; the test needs several", len(fm.Chunks))
		}
		if route == routeManifest {
			inlineAll(fm, payload)
		}
		if fault == faultChecksum {
			fm.Sum++
		}
		if fault == faultLenLie {
			fm.Chunks[1].Len += fm.Chunks[0].Len
			fm.Chunks[0].Len = 0
		}
		manifest := func(fm *wire.FileManifest) wire.Message {
			if route.peer() {
				return &wire.PeerChunk{File: fm.File, Version: fm.Version, Sum: fm.Sum, Chunks: fm.Chunks}
			}
			return fm
		}
		sendOn(t, src, manifest(fm))
		if !route.gaps() {
			break
		}
		req, ok := recvWithin(t, src, 5*time.Second).(*wire.ChunkReq)
		if !ok || len(req.Hashes) < 2 {
			t.Fatalf("source received %#v, want CHUNK_REQ for several chunks", req)
		}
		if fault == faultSourceDies {
			die()
			break
		}
		if fault == faultSuperseded {
			fm3, payload3 := manifestFor(ref, 3, newer)
			if !route.peer() {
				inlineAll(fm3, payload3) // on a link the twin's upload made them resident
			}
			sendOn(t, src, manifest(fm3))
			head, headVer = newer, 3
		}
		answer := func(req *wire.ChunkReq) *wire.ChunkData {
			cd := &wire.ChunkData{File: ref, Version: 2}
			for _, hb := range req.Hashes {
				cd.Chunks = append(cd.Chunks, wire.ChunkBlob{Hash: hb, Data: payload[chunk.Hash(hb)]})
			}
			return cd
		}
		if fault == faultSecondAnswer {
			// The same client answers again on a second session while the
			// first one's gaps are outstanding. The second assembly takes
			// over; the first session's late answer finds it superseded, and
			// the first session is still acknowledged once v2 is in.
			first := src
			g.connect(t)
			sendOn(t, g.conn, fm)
			req2, ok := recvWithin(t, g.conn, 5*time.Second).(*wire.ChunkReq)
			if !ok || len(req2.Hashes) != len(req.Hashes) {
				t.Fatalf("second session received %#v, want CHUNK_REQ for the same %d chunks", req2, len(req.Hashes))
			}
			sendOn(t, first, answer(req))
			sendOn(t, g.conn, answer(req2))
			if ack, ok := recvWithin(t, first, 5*time.Second).(*wire.FileAck); !ok || ack.Version < 2 {
				t.Fatalf("first session received %#v, want FILE_ACK for v2 or newer", ack)
			}
			break
		}
		cd := answer(req)
		if fault == faultIncomplete {
			cd.Chunks = cd.Chunks[1:]
		}
		if fault == faultChunkBytes {
			cd.Chunks[0].Data = append([]byte("x"), cd.Chunks[0].Data...)
		}
		sendOn(t, src, cd) // after a supersession: the late answer to a dead request
	}

	// A correct client sees the rest through: whatever the server asks for
	// next, it gets; an ERROR about a transfer is answered with the file
	// whole. The job's output ends the conversation.
	full := func() {
		sendOn(t, g.conn, &wire.FileFull{File: ref, Version: headVer, Content: head, Sum: diff.Checksum(head)})
	}
	var out *wire.Output
	recoveries := 0
	for out == nil {
		switch m := recvWithin(t, g.conn, 5*time.Second).(type) {
		case *wire.Pull, *wire.ErrorMsg:
			recoveries++
			full()
		case *wire.FileAck:
		case *wire.Output:
			out = m
		default:
			t.Fatalf("client received unexpected %#v", m)
		}
	}
	want := jobs.Execute(jobs.Request{Script: script, Inputs: map[string][]byte{"in": head}})
	if out.Job != ok.Job || out.ExitCode != 0 || !bytes.Equal(out.Stdout, want.Stdout) {
		t.Fatalf("job %d output = exit %d %q, want job %d %q", out.Job, out.ExitCode, out.Stdout, ok.Job, want.Stdout)
	}
	// A usable answer (a newer manifest overtaking an older one, or a
	// second session's taking over, included) needs no recovery; an unusable
	// one must have driven some.
	if usable := fault == faultNone || fault == faultSuperseded || fault == faultSecondAnswer; usable != (recoveries == 0) {
		t.Fatalf("client saw %d recovery requests", recoveries)
	}
	// The client has its answer; acknowledged, the job is forgotten too.
	sendOn(t, g.conn, &wire.OutputAck{Job: out.Job})
	assertNothingBehind(t, g.srv)
}

// assertNothingBehind waits for the server to go quiet, then checks every
// table a fetch or an acknowledged job passes through and, after evicting every file, the chunk
// store's reference counts.
func assertNothingBehind(t *testing.T, s *Server) {
	t.Helper()
	var why string
	quiet := func() bool {
		if why = fileTableBusy(s); why != "" {
			return false
		}
		s.chunkFl.mu.Lock()
		n := len(s.chunkFl.pending)
		s.chunkFl.mu.Unlock()
		if n != 0 {
			why = fmt.Sprintf("%d chunk flights", n)
			return false
		}
		s.tagMu.Lock()
		n = len(s.submitTags)
		s.tagMu.Unlock()
		if live := s.jobs.len(); live+n != 0 {
			why = fmt.Sprintf("%d jobs in the table, %d identities in the tag map", live, n)
			return false
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !quiet() {
		if time.Now().After(deadline) {
			t.Fatalf("left behind: %s", why)
		}
		time.Sleep(time.Millisecond)
	}
	s.cache.Flush()
	if n, b := s.cache.ChunkStore().Len(), s.cache.Bytes(); n != 0 || b != 0 {
		t.Fatalf("chunk store holds %d chunks, %d bytes after every file was evicted", n, b)
	}
	if why := fileTableBusy(s); why != "" {
		t.Fatalf("after every file was evicted: %s", why)
	}
}

// TestApplyDeltaEveryPath drives applyDelta through each way a delta meets
// its cached base: the in-place apply, the two deltas that take a copy of the
// base (a block move, an edit script out of ed order), and the failures — a
// base of another version or other bytes, a result failing its checksum.
// A delta that applies leaves its target in the cache; one that fails leaves
// the base.
func TestApplyDeltaEveryPath(t *testing.T) {
	base := bytes.Repeat([]byte("alpha\nbeta\ngamma\ndelta\n"), 400)
	target := bytes.Clone(base)
	copy(target[6:], "BETA")
	copy(target[len(target)-6:], "DELTA")
	hm, err := diff.Compute(diff.HuntMcIlroy, base, target)
	if err != nil {
		t.Fatal(err)
	}
	tichy, err := diff.Compute(diff.TichyBlockMove, base, target)
	if err != nil {
		t.Fatal(err)
	}
	// The same two changes, first line first: ed order reversed, which the
	// in-place pass declines and the op-by-op semantics still apply right.
	n := bytes.Count(base, []byte("\n"))
	ascending := *hm
	ascending.Ops = []diff.Op{
		{Kind: diff.OpChange, BaseStart: 2, BaseEnd: 2, Lines: [][]byte{[]byte("BETA\n")}},
		{Kind: diff.OpChange, BaseStart: n, BaseEnd: n, Lines: [][]byte{[]byte("DELTA\n")}},
	}
	corrupt := *hm
	corrupt.TargetSum++
	wrongBase := *hm
	wrongBase.BaseSum++
	for _, tc := range []struct {
		name    string
		d       *diff.Delta
		base    uint64 // the version the delta names as its base
		wantErr error
	}{
		{"in place", hm, 1, nil},
		{"block move", tichy, 1, nil},
		{"out of ed order", &ascending, 1, nil},
		{"target checksum", &corrupt, 1, core.ErrBadTransfer},
		{"base checksum", &wrongBase, 1, core.ErrStaleBase},
		{"base version", hm, 7, core.ErrStaleBase},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Defaults("apply"))
			fd := &wire.FileDelta{File: wire.FileRef{Domain: "apply", FileID: "f"}, BaseVersion: tc.base, Version: tc.base + 1, Encoded: tc.d.Encode()}
			id := s.dir.Intern(fd.File)
			if err := s.cache.Put(id, 1, base); err != nil {
				t.Fatal(err)
			}
			fb, err := s.applyDelta(id, fd, false)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err %v, want %v", err, tc.wantErr)
				}
				if e, ok := s.cache.Get(id); !ok || e.Version != 1 || !bytes.Equal(e.Content, base) {
					t.Fatal("a failed apply disturbed the cached base")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fb.b, target) {
				t.Fatal("applyDelta built other bytes than the target")
			}
			fb.release()
			if e, ok := s.cache.Get(id); !ok || e.Version != 2 || !bytes.Equal(e.Content, target) {
				t.Fatal("the cache does not hold the target")
			}
		})
	}
}
