package wire

// Chunk transfer frames. A client configured for chunked transfers answers a
// Pull with a FileManifest — the wanted version as an ordered list of
// content-addressed chunk refs, inlining the chunks the server most likely
// lacks (those absent from the pull's HaveVersion base). The server resolves every ref it already
// holds from its chunk store and requests only the gaps with a ChunkReq; the
// client answers with ChunkData. A version is therefore never retransmitted
// wholesale: after cache pressure evicts a file, re-fetching it costs exactly
// the chunks that are actually gone.

// chunkHashLen is the wire size of a chunk address (truncated SHA-256;
// must match chunk.HashSize).
const chunkHashLen = 16

// chunkRefWireLen is the minimum encoded size of one ChunkRef (hash plus at
// least one length byte) — the count-guard floor for manifest decoding.
const chunkRefWireLen = chunkHashLen + 1

// ChunkRef is one manifest entry on the wire: a chunk's content address and
// its length. Offsets are implicit (chunks are contiguous in order).
type ChunkRef struct {
	Hash [chunkHashLen]byte
	Len  uint32
}

// InlineChunk carries one chunk's bytes piggybacked on a FileManifest,
// identified by its index into the manifest's Chunks.
type InlineChunk struct {
	Index uint32
	Data  []byte
}

// rawHash appends a fixed-size hash.
func (e *encoder) rawHash(h [chunkHashLen]byte) { e.buf = append(e.buf, h[:]...) }

// rawHash reads a fixed-size hash.
func (d *decoder) rawHash() (h [chunkHashLen]byte) {
	b := d.take(chunkHashLen)
	if len(b) == chunkHashLen {
		copy(h[:], b)
	}
	return h
}

// FileManifest is the chunked answer to a Pull: the wanted version described as
// chunk refs, with the chunks the sender believes the receiver lacks inlined.
type FileManifest struct {
	File    FileRef
	Version uint64
	// Sum is the whole-content checksum, verified after assembly exactly
	// as FileFull's is.
	Sum    uint32
	Chunks []ChunkRef
	Inline []InlineChunk
}

// Kind implements Message.
func (*FileManifest) Kind() Kind { return KindFileManifest }

// PayloadLen approximates the frame's transfer payload: the encoded refs
// plus the inline chunk bytes (for byte accounting, not exact encoding size).
func (m *FileManifest) PayloadLen() int {
	n := len(m.Chunks) * chunkRefWireLen
	for _, ic := range m.Inline {
		n += len(ic.Data)
	}
	return n
}

func (m *FileManifest) encode(e *encoder) {
	e.fileRef(m.File)
	e.uvarint(m.Version)
	e.uint32(m.Sum)
	e.uvarint(uint64(len(m.Chunks)))
	for _, c := range m.Chunks {
		e.rawHash(c.Hash)
		e.uvarint(uint64(c.Len))
	}
	e.uvarint(uint64(len(m.Inline)))
	for _, ic := range m.Inline {
		e.uvarint(uint64(ic.Index))
		e.bytes(ic.Data)
	}
}

func (m *FileManifest) decode(d *decoder) {
	m.File = d.fileRef()
	m.Version = d.uvarint()
	m.Sum = d.uint32()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf))/chunkRefWireLen {
		d.fail("chunk count exceeds frame")
		return
	}
	m.Chunks = make([]ChunkRef, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var c ChunkRef
		c.Hash = d.rawHash()
		c.Len = uint32(d.uvarint())
		m.Chunks = append(m.Chunks, c)
	}
	n = d.uvarint()
	if d.err == nil && n > uint64(len(d.buf))/2 {
		d.fail("inline count exceeds frame")
		return
	}
	m.Inline = make([]InlineChunk, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var ic InlineChunk
		ic.Index = uint32(d.uvarint())
		ic.Data = d.bytes()
		m.Inline = append(m.Inline, ic)
	}
}

// ChunkReq asks the peer for the listed chunks of a file version it just
// described in a FileManifest — the "missing chunks only" fallback that
// replaces whole-file retransmission.
type ChunkReq struct {
	File    FileRef
	Version uint64
	Hashes  [][chunkHashLen]byte
}

// Kind implements Message.
func (*ChunkReq) Kind() Kind { return KindChunkReq }

func (m *ChunkReq) encode(e *encoder) {
	e.fileRef(m.File)
	e.uvarint(m.Version)
	e.uvarint(uint64(len(m.Hashes)))
	for _, h := range m.Hashes {
		e.rawHash(h)
	}
}

func (m *ChunkReq) decode(d *decoder) {
	m.File = d.fileRef()
	m.Version = d.uvarint()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf))/chunkHashLen {
		d.fail("hash count exceeds frame")
		return
	}
	m.Hashes = make([][chunkHashLen]byte, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Hashes = append(m.Hashes, d.rawHash())
	}
}

// ChunkBlob is one chunk's bytes, addressed by its hash.
type ChunkBlob struct {
	Hash [chunkHashLen]byte
	Data []byte
}

// ChunkData answers a ChunkReq with the chunks the sender still holds. A
// requested chunk the sender no longer has is simply omitted; an incomplete
// answer makes the requester drop its pending assembly and re-pull, which
// converges on the sender's current head.
type ChunkData struct {
	File    FileRef
	Version uint64
	Chunks  []ChunkBlob
}

// Kind implements Message.
func (*ChunkData) Kind() Kind { return KindChunkData }

// PayloadLen approximates the frame's transfer payload: each chunk's address
// plus its bytes.
func (m *ChunkData) PayloadLen() int {
	n := 0
	for _, c := range m.Chunks {
		n += chunkHashLen + len(c.Data)
	}
	return n
}

func (m *ChunkData) encode(e *encoder) {
	e.fileRef(m.File)
	e.uvarint(m.Version)
	e.uvarint(uint64(len(m.Chunks)))
	for _, c := range m.Chunks {
		e.rawHash(c.Hash)
		e.bytes(c.Data)
	}
}

func (m *ChunkData) decode(d *decoder) {
	m.File = d.fileRef()
	m.Version = d.uvarint()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf))/chunkRefWireLen {
		d.fail("chunk count exceeds frame")
		return
	}
	m.Chunks = make([]ChunkBlob, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var c ChunkBlob
		c.Hash = d.rawHash()
		c.Data = d.bytes()
		m.Chunks = append(m.Chunks, c)
	}
}
