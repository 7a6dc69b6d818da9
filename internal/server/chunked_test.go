package server

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"shadowedit/internal/chunk"
	"shadowedit/internal/diff"
	"shadowedit/internal/wire"
)

// manifestFor splits content and builds the chunked wire frames for it: the
// manifest (without inline chunks) and the per-chunk payloads by hash.
func manifestFor(ref wire.FileRef, version uint64, content []byte) (*wire.FileManifest, map[chunk.Hash][]byte) {
	m := chunk.Split(content, chunk.DefaultParams)
	fm := &wire.FileManifest{File: ref, Version: version, Sum: diff.Checksum(content)}
	payload := make(map[chunk.Hash][]byte, len(m))
	off := 0
	for _, r := range m {
		fm.Chunks = append(fm.Chunks, wire.ChunkRef{Hash: r.Hash, Len: r.Len})
		payload[r.Hash] = content[off : off+int(r.Len)]
		off += int(r.Len)
	}
	return fm, payload
}

// inlineAll attaches every chunk's bytes to the manifest.
func inlineAll(fm *wire.FileManifest, payload map[chunk.Hash][]byte) {
	seen := make(map[chunk.Hash]bool)
	for i, c := range fm.Chunks {
		h := chunk.Hash(c.Hash)
		if seen[h] {
			continue
		}
		seen[h] = true
		fm.Inline = append(fm.Inline, wire.InlineChunk{Index: uint32(i), Data: payload[h]})
	}
}

// chunkContent builds content big enough to split into several chunks.
func chunkContent(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*7 + i>>6)
	}
	return b
}

func TestHelloEchoesNegotiatedProtocol(t *testing.T) {
	r := newRig(t, Config{})
	r.send(t, &wire.Hello{Protocol: wire.ProtocolVersion, User: "u", Domain: "d", ClientHost: "ws"})
	ok, isOK := r.recv(t).(*wire.HelloOK)
	if !isOK {
		t.Fatalf("hello reply = %#v", ok)
	}
	if ok.Protocol != wire.ProtocolVersion {
		t.Fatalf("HelloOK.Protocol = %d, want %d", ok.Protocol, wire.ProtocolVersion)
	}
}

func TestChunkedInlineManifestStores(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	content := chunkContent(1, 8192)
	fm, payload := manifestFor(testRef, 1, content)
	inlineAll(fm, payload)
	r.send(t, fm)
	ack, ok := r.recv(t).(*wire.FileAck)
	if !ok || ack.Version != 1 {
		t.Fatalf("reply = %#v, want ack v1", ack)
	}
	id := r.srv.dir.Intern(testRef)
	e, ok := r.srv.cache.Get(id)
	if !ok || !bytes.Equal(e.Content, content) {
		t.Fatal("cache does not hold the assembled content")
	}
	if got := r.srv.Metrics().ManifestSends; got != 1 {
		t.Fatalf("manifest count = %d, want 1", got)
	}
}

func TestChunkedMissingChunksFetched(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	content := chunkContent(2, 8192)
	fm, payload := manifestFor(testRef, 1, content)
	// No inline chunks: the server must request every gap.
	r.send(t, fm)
	req, ok := r.recv(t).(*wire.ChunkReq)
	if !ok {
		t.Fatalf("reply = %#v, want ChunkReq", req)
	}
	if len(req.Hashes) != len(payload) {
		t.Fatalf("requested %d chunks, want %d", len(req.Hashes), len(payload))
	}
	cd := &wire.ChunkData{File: testRef, Version: 1}
	for _, hb := range req.Hashes {
		cd.Chunks = append(cd.Chunks, wire.ChunkBlob{Hash: hb, Data: payload[chunk.Hash(hb)]})
	}
	r.send(t, cd)
	ack, isAck := r.recv(t).(*wire.FileAck)
	if !isAck || ack.Version != 1 {
		t.Fatalf("reply = %#v, want ack v1", ack)
	}
	id := r.srv.dir.Intern(testRef)
	if e, ok := r.srv.cache.Get(id); !ok || !bytes.Equal(e.Content, content) {
		t.Fatal("cache does not hold the assembled content")
	}
	snap := r.srv.Metrics()
	if snap.Rehydrations != 1 {
		t.Fatalf("rehydrations = %d, want 1", snap.Rehydrations)
	}
	if snap.ChunksRequested != int64(len(payload)) {
		t.Fatalf("chunks requested = %d, want %d", snap.ChunksRequested, len(payload))
	}
}

func TestChunkedCrossFileDedupNoRefetch(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	content := chunkContent(3, 8192)
	fmA, payload := manifestFor(testRef, 1, content)
	inlineAll(fmA, payload)
	r.send(t, fmA)
	if ack, ok := r.recv(t).(*wire.FileAck); !ok || ack.Version != 1 {
		t.Fatalf("reply = %#v, want ack", ack)
	}
	// A second file with identical content, nothing inlined: every chunk is
	// already resident, so the manifest alone must complete the transfer.
	refB := wire.FileRef{Domain: "d", FileID: "ws:/u/g.dat"}
	fmB, _ := manifestFor(refB, 1, content)
	r.send(t, fmB)
	if ack, ok := r.recv(t).(*wire.FileAck); !ok || ack.Version != 1 {
		t.Fatalf("reply = %#v, want ack without any ChunkReq", ack)
	}
	idB := r.srv.dir.Intern(refB)
	if e, ok := r.srv.cache.Get(idB); !ok || !bytes.Equal(e.Content, content) {
		t.Fatal("cache does not hold B's content")
	}
	st := r.srv.cache.Stats()
	if st.LogicalBytes != 2*int64(len(content)) {
		t.Fatalf("logical bytes = %d, want %d", st.LogicalBytes, 2*len(content))
	}
	if st.Bytes != int64(len(content)) {
		t.Fatalf("unique bytes = %d, want %d (identical content stored once)", st.Bytes, len(content))
	}
}

func TestChunkedIncompleteAnswerFallsBackToFullPull(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	content := chunkContent(4, 8192)
	fm, payload := manifestFor(testRef, 1, content)
	r.send(t, fm)
	req, ok := r.recv(t).(*wire.ChunkReq)
	if !ok || len(req.Hashes) < 2 {
		t.Fatalf("reply = %#v, want ChunkReq for several chunks", req)
	}
	// Answer with all but one chunk — as a client whose store moved on would.
	cd := &wire.ChunkData{File: testRef, Version: 1}
	for _, hb := range req.Hashes[1:] {
		cd.Chunks = append(cd.Chunks, wire.ChunkBlob{Hash: hb, Data: payload[chunk.Hash(hb)]})
	}
	r.send(t, cd)
	pull, isPull := r.recv(t).(*wire.Pull)
	if !isPull {
		t.Fatalf("reply = %#v, want full Pull fallback", pull)
	}
	if pull.HaveVersion != 0 || pull.WantVersion != 1 {
		t.Fatalf("pull = %+v, want full pull of v1", pull)
	}
	// The aborted assembly must have released its pins: flushing the cache
	// leaves the store empty.
	r.srv.cache.Flush()
	if got := r.srv.cache.Bytes(); got != 0 {
		t.Fatalf("chunk store holds %d bytes after aborted assembly", got)
	}
}

func TestChunkedEvictionRehydratesOnlyMissingChunks(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	content := chunkContent(5, 16384)
	fm, payload := manifestFor(testRef, 1, content)
	inlineAll(fm, payload)
	r.send(t, fm)
	if ack, ok := r.recv(t).(*wire.FileAck); !ok || ack.Version != 1 {
		t.Fatalf("reply = %#v, want ack", ack)
	}
	// Disk pressure: the entry is evicted and its chunks freed.
	id := r.srv.dir.Intern(testRef)
	r.srv.cache.Evict(id)
	if got := r.srv.cache.Bytes(); got != 0 {
		t.Fatalf("store holds %d bytes after eviction", got)
	}
	// Version 2 appends to the same content; the server lost everything, so
	// it must request the chunks — and only the chunks — it is missing.
	content2 := append(append([]byte(nil), content...), chunkContent(6, 2048)...)
	fm2, payload2 := manifestFor(testRef, 2, content2)
	r.send(t, fm2)
	req, ok := r.recv(t).(*wire.ChunkReq)
	if !ok {
		t.Fatalf("reply = %#v, want ChunkReq", req)
	}
	cd := &wire.ChunkData{File: testRef, Version: 2}
	for _, hb := range req.Hashes {
		cd.Chunks = append(cd.Chunks, wire.ChunkBlob{Hash: hb, Data: payload2[chunk.Hash(hb)]})
	}
	r.send(t, cd)
	if ack, isAck := r.recv(t).(*wire.FileAck); !isAck || ack.Version != 2 {
		t.Fatalf("reply = %#v, want ack v2", ack)
	}
	if e, ok := r.srv.cache.Get(id); !ok || !bytes.Equal(e.Content, content2) {
		t.Fatal("cache does not hold the rehydrated content")
	}
	if got := r.srv.Metrics().Rehydrations; got != 1 {
		t.Fatalf("rehydrations = %d, want 1", got)
	}
}

// secondSession dials another connection to the rig's server and completes
// the v3 handshake, modelling a second concurrent user.
func (r *rig) secondSession(t *testing.T) *rig {
	t.Helper()
	conn, err := r.host.Dial("super", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	r2 := &rig{srv: r.srv, conn: conn, host: r.host}
	r2.hello(t)
	return r2
}

// waitForWaiters blocks until n chunk flights have at least one enrolled
// waiter — the observable sign that a second manifest coalesced its gaps
// onto fetches already in flight.
func waitForWaiters(t *testing.T, srv *Server, n int) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		srv.chunkFl.mu.Lock()
		waited := 0
		for _, ws := range srv.chunkFl.pending {
			if len(ws) > 0 {
				waited++
			}
		}
		srv.chunkFl.mu.Unlock()
		if waited >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("second session never enrolled as chunk-flight waiter")
}

func TestChunkedConcurrentUploadCoalesces(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r2 := r.secondSession(t)

	// Two users upload identical fresh content at the same time. The first
	// manifest claims every chunk fetch; the second must ride those flights
	// and never see a ChunkReq of its own.
	content := chunkContent(8, 8192)
	refB := wire.FileRef{Domain: "d", FileID: "ws:/u/g.dat"}
	fmA, payload := manifestFor(testRef, 1, content)
	fmB, _ := manifestFor(refB, 1, content)

	r.send(t, fmA)
	req, ok := r.recv(t).(*wire.ChunkReq)
	if !ok {
		t.Fatalf("reply = %#v, want ChunkReq", req)
	}
	r2.send(t, fmB)
	waitForWaiters(t, r.srv, len(req.Hashes))

	cd := &wire.ChunkData{File: testRef, Version: 1}
	for _, hb := range req.Hashes {
		cd.Chunks = append(cd.Chunks, wire.ChunkBlob{Hash: hb, Data: payload[chunk.Hash(hb)]})
	}
	r.send(t, cd)
	if ack, isAck := r.recv(t).(*wire.FileAck); !isAck || ack.Version != 1 {
		t.Fatalf("owner reply = %#v, want ack v1", ack)
	}
	// The waiter's very next frame is its ack: the owner's chunks completed
	// its assembly with no second fetch round.
	if ack, isAck := r2.recv(t).(*wire.FileAck); !isAck || ack.Version != 1 {
		t.Fatalf("waiter reply = %#v, want ack v1 with no ChunkReq", ack)
	}
	for _, ref := range []wire.FileRef{testRef, refB} {
		id := r.srv.dir.Intern(ref)
		if e, ok := r.srv.cache.Get(id); !ok || !bytes.Equal(e.Content, content) {
			t.Fatalf("cache does not hold %v", ref)
		}
	}
	snap := r.srv.Metrics()
	if snap.ChunksRequested != int64(len(payload)) {
		t.Fatalf("chunks requested = %d, want %d (one fetch per unique chunk)",
			snap.ChunksRequested, len(payload))
	}
	st := r.srv.cache.Stats()
	if st.Bytes != int64(len(content)) || st.LogicalBytes != 2*int64(len(content)) {
		t.Fatalf("unique/logical = %d/%d, want %d/%d",
			st.Bytes, st.LogicalBytes, len(content), 2*len(content))
	}
}

func TestChunkedOwnerDeathFailsOverToWaiter(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	r2 := r.secondSession(t)

	content := chunkContent(9, 8192)
	refB := wire.FileRef{Domain: "d", FileID: "ws:/u/g.dat"}
	fmA, _ := manifestFor(testRef, 1, content)
	fmB, payload := manifestFor(refB, 1, content)

	r.send(t, fmA)
	req, ok := r.recv(t).(*wire.ChunkReq)
	if !ok {
		t.Fatalf("reply = %#v, want ChunkReq", req)
	}
	r2.send(t, fmB)
	waitForWaiters(t, r.srv, len(req.Hashes))

	// The owner dies without answering. Its flights fail over: the waiter
	// must be asked for the chunks its own manifest advertised, and complete
	// at chunk granularity — never with a whole-file fallback.
	_ = r.conn.Close()
	got := make(map[chunk.Hash][]byte)
	for len(got) < len(payload) {
		m := r2.recv(t)
		cr, isReq := m.(*wire.ChunkReq)
		if !isReq {
			t.Fatalf("waiter got %#v, want ChunkReq after owner death", m)
		}
		for _, hb := range cr.Hashes {
			h := chunk.Hash(hb)
			got[h] = payload[h]
		}
	}
	cd := &wire.ChunkData{File: refB, Version: 1}
	for h, data := range got {
		cd.Chunks = append(cd.Chunks, wire.ChunkBlob{Hash: h, Data: data})
	}
	r2.send(t, cd)
	if ack, isAck := r2.recv(t).(*wire.FileAck); !isAck || ack.Version != 1 {
		t.Fatalf("waiter reply = %#v, want ack v1", ack)
	}
	idB := r.srv.dir.Intern(refB)
	if e, ok := r.srv.cache.Get(idB); !ok || !bytes.Equal(e.Content, content) {
		t.Fatal("cache does not hold the failed-over content")
	}
	if snap := r.srv.Metrics(); snap.FullFallbacks != 0 {
		t.Fatalf("full fallbacks = %d, want 0", snap.FullFallbacks)
	}
}

func TestChunkedBadInlineHashRejected(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	content := chunkContent(7, 4096)
	fm, payload := manifestFor(testRef, 1, content)
	inlineAll(fm, payload)
	fm.Inline[0].Data = append([]byte(nil), fm.Inline[0].Data...)
	fm.Inline[0].Data[0] ^= 0xff // corrupt: data no longer matches its address
	r.send(t, fm)
	if em, ok := r.recv(t).(*wire.ErrorMsg); !ok || em.Code != wire.CodeBadRequest {
		t.Fatalf("reply = %#v, want bad-request error", em)
	}
	// Nothing poisoned, nothing pinned.
	r.srv.cache.Flush()
	if got := r.srv.cache.Bytes(); got != 0 {
		t.Fatalf("chunk store holds %d bytes after rejected manifest", got)
	}
}

// TestChunkedManifestLyingLengthsRefused: a manifest whose chunks hash and sum
// correctly but whose refs misstate the chunk lengths (here an empty first
// ref, its bytes credited to the second) must not be installed — everything
// that reads a manifest's Len afterwards takes it for the chunk's length.
func TestChunkedManifestLyingLengthsRefused(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	content := chunkContent(10, 8192)
	fm, payload := manifestFor(testRef, 1, content)
	if len(fm.Chunks) < 2 {
		t.Fatalf("content splits into %d chunks; the test needs two", len(fm.Chunks))
	}
	inlineAll(fm, payload)
	fm.Chunks[1].Len += fm.Chunks[0].Len
	fm.Chunks[0].Len = 0
	r.send(t, fm)
	pull, ok := r.recv(t).(*wire.Pull)
	if !ok || pull.HaveVersion != 0 || pull.WantVersion != 1 {
		t.Fatalf("reply = %#v, want full Pull of v1", pull)
	}
	if _, ok := r.srv.cache.Version(r.srv.dir.Intern(testRef)); ok {
		t.Fatal("the lying manifest was installed")
	}
	if got := r.srv.cache.Bytes(); got != 0 {
		t.Fatalf("chunk store holds %d bytes after the refused manifest", got)
	}
}

// TestDeltaOnClientManifestSplitsInFull: a client's manifest may be honest
// about lengths and still not be the split the server would make. A delta
// arriving on such a base must not derive the new manifest from it: the
// server stores the result under its own full split (in -race builds the
// cache would otherwise panic on the mismatch).
func TestDeltaOnClientManifestSplitsInFull(t *testing.T) {
	r := newRig(t, Config{})
	r.hello(t)
	base := bytes.Repeat([]byte("one line of a file that is edited later\n"), 400)
	fm := &wire.FileManifest{File: testRef, Version: 1, Sum: diff.Checksum(base)}
	for off := 0; off < len(base); off += 1000 { // fixed-size pieces, not content-defined
		piece := base[off:min(off+1000, len(base))]
		fm.Inline = append(fm.Inline, wire.InlineChunk{Index: uint32(len(fm.Chunks)), Data: piece})
		fm.Chunks = append(fm.Chunks, wire.ChunkRef{Hash: chunk.HashOf(piece), Len: uint32(len(piece))})
	}
	r.send(t, fm)
	if ack, ok := r.recv(t).(*wire.FileAck); !ok || ack.Version != 1 {
		t.Fatalf("reply = %#v, want ack v1", ack)
	}
	target := append([]byte(nil), base...)
	copy(target[5000:], "EDITED")
	d, err := diff.Compute(diff.HuntMcIlroy, base, target)
	if err != nil {
		t.Fatal(err)
	}
	r.send(t, &wire.FileDelta{File: testRef, BaseVersion: 1, Version: 2, Encoded: d.Encode()})
	if ack, ok := r.recv(t).(*wire.FileAck); !ok || ack.Version != 2 {
		t.Fatalf("reply = %#v, want ack v2", ack)
	}
	id := r.srv.dir.Intern(testRef)
	if e, ok := r.srv.cache.Get(id); !ok || !bytes.Equal(e.Content, target) {
		t.Fatal("cache does not hold the applied content")
	}
	if _, m, _, _ := r.srv.cache.Manifest(id); !slices.Equal(m, chunk.Split(target, chunk.DefaultParams)) {
		t.Fatal("v2's manifest is not the server's own split")
	}
}
