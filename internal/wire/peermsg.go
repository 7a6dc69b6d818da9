package wire

// Cluster peer frames. Shadowd instances in a cluster
// open ordinary protocol sessions to each other and mark them server-to-
// server with a PeerHello. On peer sessions the file-placement ring (see
// internal/cluster) names one instance as each file's owner; non-owners
// fetch a hot file from its owner with PeerNotify instead of pulling it
// from the client a second time. The owner answers with the smallest thing
// that works: a PeerDelta forwarding the very delta the client sent it, a
// PeerChunk manifest resolved against the requester's chunk store (gaps
// travel as ordinary ChunkReq/ChunkData on the same session), or a
// PeerDelta with Version 0 — "I can't serve this, pull it from the client
// yourself". Full file bodies never cross a peer link: there is no peer
// full-file frame at all.

// PeerHello marks an established session as server-to-server. It follows
// the ordinary Hello/HelloOK exchange; Instance is the sender's cluster member name, which
// the receiver uses to place the session on its ring.
type PeerHello struct {
	// Instance is the dialing server's cluster member name.
	Instance string
}

// Kind implements Message.
func (*PeerHello) Kind() Kind { return KindPeerHello }

func (m *PeerHello) encode(e *encoder) { e.string(m.Instance) }
func (m *PeerHello) decode(d *decoder) { m.Instance = d.string() }

// PeerNotify asks a file's owner for a version: "I need WantVersion of
// File and hold HaveVersion (0 if none)". The owner answers with a
// PeerDelta or PeerChunk for exactly (HaveVersion, WantVersion-or-newer),
// or a negative PeerDelta when it cannot serve the file.
type PeerNotify struct {
	File        FileRef
	HaveVersion uint64
	WantVersion uint64
}

// Kind implements Message.
func (*PeerNotify) Kind() Kind { return KindPeerNotify }

func (m *PeerNotify) encode(e *encoder) {
	e.fileRef(m.File)
	e.uvarint(m.HaveVersion)
	e.uvarint(m.WantVersion)
}

func (m *PeerNotify) decode(d *decoder) {
	m.File = d.fileRef()
	m.HaveVersion = d.uvarint()
	m.WantVersion = d.uvarint()
}

// PeerDelta forwards a version delta between peers — typically the very
// FILE_DELTA frame body the owner received from the client, re-sent
// verbatim (Difference Based Content Networking style: diffs propagate
// node-to-node, full content does not).
//
// Version 0 is the negative answer: the owner cannot serve the requested
// file (evicted, never seen, or no usable base) and the requester should
// pull from the client itself. A negative answer carries no delta bytes.
type PeerDelta struct {
	File        FileRef
	BaseVersion uint64
	Version     uint64
	Encoded     []byte
	Compressed  bool
}

// Kind implements Message.
func (*PeerDelta) Kind() Kind { return KindPeerDelta }

// Negative reports whether the frame is the "can't serve" answer.
func (m *PeerDelta) Negative() bool { return m.Version == 0 }

func (m *PeerDelta) encode(e *encoder) {
	e.fileRef(m.File)
	e.uvarint(m.BaseVersion)
	e.uvarint(m.Version)
	e.bytes(m.Encoded)
	e.bool(m.Compressed)
}

func (m *PeerDelta) decode(d *decoder) {
	m.File = d.fileRef()
	m.BaseVersion = d.uvarint()
	m.Version = d.uvarint()
	m.Encoded = d.bytes()
	m.Compressed = d.bool()
}

// PeerChunk is the owner's manifest answer when it holds the wanted version
// but no delta from the requester's base: the version as content-addressed
// chunk refs, exactly like a FileManifest but flowing server-to-server.
// The requester resolves refs against its own chunk store and requests only
// the gaps with a ChunkReq on the same peer session; Sum verifies the
// assembled content.
type PeerChunk struct {
	File    FileRef
	Version uint64
	Sum     uint32
	Chunks  []ChunkRef
}

// Kind implements Message.
func (*PeerChunk) Kind() Kind { return KindPeerChunk }

// PayloadLen approximates the frame's transfer payload: the encoded refs
// (for byte accounting, not exact encoding size).
func (m *PeerChunk) PayloadLen() int { return len(m.Chunks) * chunkRefWireLen }

func (m *PeerChunk) encode(e *encoder) {
	e.fileRef(m.File)
	e.uvarint(m.Version)
	e.uint32(m.Sum)
	e.uvarint(uint64(len(m.Chunks)))
	for _, c := range m.Chunks {
		e.rawHash(c.Hash)
		e.uvarint(uint64(c.Len))
	}
}

func (m *PeerChunk) decode(d *decoder) {
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
}
