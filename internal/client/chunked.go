package client

// Chunked pull answering: instead of a line delta or a whole file, the
// client describes the wanted version as a manifest of content-addressed
// chunk refs. When the server's base version is retained here, the chunks
// absent from that base — the only ones the server can be missing — are
// inlined on the manifest, so the steady state stays one frame per transfer.
// With no usable base (first upload, or the base pruned here), nothing is
// inlined and the server requests exactly the chunks it lacks: content
// another user already uploaded is never sent again.

import (
	"shadowedit/internal/chunk"
	"shadowedit/internal/core"
	"shadowedit/internal/diff"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
)

// answerPullChunked builds and sends the chunk-manifest answer to a pull.
// It reports false when the version store cannot satisfy the pull at all, in
// which case the caller falls back to the classic path (which also handles
// the restore-from-disk case).
func (c *Client) answerPullChunked(m *wire.Pull, tc wire.TraceContext, sp *trace.Span) bool {
	want := m.WantVersion
	manifest, content, err := c.store.ManifestFor(m.File, want)
	if err != nil {
		// The wanted version is gone (pruned past, or the pull raced a
		// newer commit); answer with the head instead — the server always
		// converges on the newest version.
		if head, ok := c.store.HeadShared(m.File); ok {
			want = head.Number
			manifest, content, err = c.store.ManifestFor(m.File, want)
		}
		if err != nil {
			return false
		}
	}
	// Chunking cost is charged like diff cost: the manifest split runs over
	// the same bytes a delta computation would.
	core.ChargeDiffCost(c.cfg.Clock, len(content))

	fm := &wire.FileManifest{File: m.File, Version: want, Sum: diff.Checksum(content)}
	fm.Chunks = make([]wire.ChunkRef, len(manifest))

	// The server's base tells us which chunks it (at worst) already holds;
	// fresh chunks ride inline so an incremental edit stays one frame. But
	// inlining is only a bet that the server lacks those chunks: when most
	// of the file is fresh relative to the base — a rewritten or brand-new
	// file — the bet is off, because another user may well have uploaded
	// the same content already. Then the manifest goes bare and the server
	// requests exactly its gaps, which is what makes a second user's
	// near-identical content cost a manifest plus only its private chunks.
	var base map[chunk.Hash]bool
	if m.HaveVersion > 0 {
		if bm, _, berr := c.store.ManifestFor(m.File, m.HaveVersion); berr == nil {
			base = make(map[chunk.Hash]bool, len(bm))
			for _, r := range bm {
				base[r.Hash] = true
			}
		}
	}
	fresh := 0
	for _, r := range manifest {
		if !base[r.Hash] {
			fresh++
		}
	}
	off := 0
	var inlined map[chunk.Hash]bool
	for i, r := range manifest {
		fm.Chunks[i] = wire.ChunkRef{Hash: r.Hash, Len: r.Len}
		data := content[off : off+int(r.Len)]
		off += int(r.Len)
		if base != nil && 2*fresh <= len(manifest) && !base[r.Hash] && !inlined[r.Hash] {
			if inlined == nil {
				inlined = make(map[chunk.Hash]bool)
			}
			inlined[r.Hash] = true
			fm.Inline = append(fm.Inline, wire.InlineChunk{Index: uint32(i), Data: data})
		}
	}
	c.counters.AddManifest(fm.PayloadLen())
	if sp != nil {
		if len(fm.Inline) > 0 {
			sp.Annotate("manifest+inline")
		} else {
			sp.Annotate("manifest")
		}
	}
	_ = c.sendTraced(fm, ctxOr(sp, tc))
	return true
}

// handleChunkReq answers the server's request for specific chunks of a file
// version, scanning the retained versions for each address. Chunks this
// store no longer has are omitted; the server treats an incomplete answer by
// re-pulling, which converges on the current head.
func (c *Client) handleChunkReq(m *wire.ChunkReq, tc wire.TraceContext) {
	sp := c.cfg.Obs.StartSpan(tc, "client.answer-chunks")
	if sp != nil {
		sp.SetFile(m.File.String())
	}
	defer sp.Finish()
	reply := &wire.ChunkData{File: m.File, Version: m.Version}
	reply.Chunks = make([]wire.ChunkBlob, 0, len(m.Hashes))
	for _, hb := range m.Hashes {
		if data, ok := c.store.ChunkByHash(m.File, chunk.Hash(hb)); ok {
			reply.Chunks = append(reply.Chunks, wire.ChunkBlob{Hash: hb, Data: data})
		}
	}
	if len(reply.Chunks) < len(m.Hashes) {
		sp.Annotate("partial")
	}
	c.counters.AddChunkData(reply.PayloadLen())
	_ = c.sendTraced(reply, ctxOr(sp, tc))
}
