package wire

// Directory reconciliation frames. A client opens a workspace sync by sending
// a TreeHead — the Merkle-style summary of one directory tree, where each leaf is the fingerprint of a file's chunk
// manifest and each interior node hashes its children in sorted name order.
// When the server's summary of the same tree matches, the exchange ends in
// one round trip (TreeDiff with InSync set). Otherwise the two sides walk
// only the divergent subtrees: the client asks for directory listings with
// TreeDiff.Want, the server answers with TreeDiff.Dirs, and the changed
// leaves the walk uncovers travel as one BatchNotify instead of a per-file
// notify storm. The pulls, transfers and acks a BatchNotify provokes ride
// the existing per-file machinery (pipelined session writer, flight
// coalescing, chunk transfer), so tree sync changes how divergence is
// *discovered*, not how bytes move.

// treeEntryWireLen is the minimum encoded size of one TreeEntry (one name
// length byte, the hash, the dir flag) — the count-guard floor for
// directory-listing decoding.
const treeEntryWireLen = 1 + chunkHashLen + 1

// notifyEntryWireLen is the minimum encoded size of one NotifyEntry (two
// string length bytes for the file ref, version, size, checksum).
const notifyEntryWireLen = 2 + 1 + 1 + 4

// TreeHead announces one side's Merkle summary of a workspace: the root
// directory (as a file-id prefix in the session's naming domain), the root
// hash, and the number of files beneath it. The receiver compares against
// its own summary of the same root and answers with a TreeDiff.
type TreeHead struct {
	// Root is the canonical file-id prefix of the workspace directory
	// ("host:/abs/path" after alias and mount resolution, no trailing
	// slash); the files of the workspace are exactly the ids beneath it.
	Root string
	// Hash is the Merkle root: interior nodes hash their children in
	// sorted name order, leaves are chunk-manifest fingerprints.
	Hash [chunkHashLen]byte
	// Count is the number of files in the tree (0 for an empty workspace).
	Count uint32
}

// Kind implements Message.
func (*TreeHead) Kind() Kind { return KindTreeHead }

func (m *TreeHead) encode(e *encoder) {
	e.string(m.Root)
	e.rawHash(m.Hash)
	e.uvarint(uint64(m.Count))
}

func (m *TreeHead) decode(d *decoder) {
	m.Root = d.string()
	m.Hash = d.rawHash()
	m.Count = uint32(d.uvarint())
}

// TreeEntry is one name in a directory listing: a file (leaf fingerprint)
// or a subdirectory (interior hash).
type TreeEntry struct {
	Name string
	Hash [chunkHashLen]byte
	Dir  bool
}

// TreeDir is one directory's listing, addressed by its slash path relative
// to the workspace root ("" is the root itself).
type TreeDir struct {
	Path    string
	Entries []TreeEntry
}

// TreeDiff carries one step of the reconciliation walk, in either
// direction. As a request (client to server) Want lists the relative
// directory paths whose listings the client needs — every directory whose
// hash differed at the previous level. As a reply (server to client) Dirs
// holds those listings, or InSync reports that the roots already match and
// no walk is needed. A requested directory the server's tree lacks comes
// back as an empty listing, which the client reads as "everything beneath
// is missing on the server".
type TreeDiff struct {
	Root   string
	Want   []string
	Dirs   []TreeDir
	InSync bool
}

// Kind implements Message.
func (*TreeDiff) Kind() Kind { return KindTreeDiff }

func (m *TreeDiff) encode(e *encoder) {
	e.string(m.Root)
	e.uvarint(uint64(len(m.Want)))
	for _, w := range m.Want {
		e.string(w)
	}
	e.uvarint(uint64(len(m.Dirs)))
	for _, dir := range m.Dirs {
		e.string(dir.Path)
		e.uvarint(uint64(len(dir.Entries)))
		for _, ent := range dir.Entries {
			e.string(ent.Name)
			e.rawHash(ent.Hash)
			e.bool(ent.Dir)
		}
	}
	e.bool(m.InSync)
}

func (m *TreeDiff) decode(d *decoder) {
	m.Root = d.string()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail("want count exceeds frame")
		return
	}
	m.Want = make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Want = append(m.Want, d.string())
	}
	n = d.uvarint()
	if d.err == nil && n > uint64(len(d.buf))/2 {
		d.fail("dir count exceeds frame")
		return
	}
	m.Dirs = make([]TreeDir, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var dir TreeDir
		dir.Path = d.string()
		en := d.uvarint()
		if d.err == nil && en > uint64(len(d.buf))/treeEntryWireLen {
			d.fail("entry count exceeds frame")
			return
		}
		dir.Entries = make([]TreeEntry, 0, en)
		for j := uint64(0); j < en && d.err == nil; j++ {
			var ent TreeEntry
			ent.Name = d.string()
			ent.Hash = d.rawHash()
			ent.Dir = d.bool()
			dir.Entries = append(dir.Entries, ent)
		}
		m.Dirs = append(m.Dirs, dir)
	}
	m.InSync = d.bool()
}

// NotifyEntry is one file's notification inside a BatchNotify — the same
// facts a per-file Notify carries.
type NotifyEntry struct {
	File    FileRef
	Version uint64
	Size    int64
	Sum     uint32
}

// BatchNotify announces every divergent file a tree walk uncovered in one
// frame: the files whose new versions the server should pull, and the files
// the server still summarizes but the client no longer has (the server
// drops them from its cache so the next walk converges). The server answers
// each notify exactly as it answers a per-file Notify — pull now, defer, or
// ack immediately when its cache is already current — so batching changes
// the control-message count, not the transfer semantics.
type BatchNotify struct {
	Notifies []NotifyEntry
	Removed  []FileRef
}

// Kind implements Message.
func (*BatchNotify) Kind() Kind { return KindBatchNotify }

func (m *BatchNotify) encode(e *encoder) {
	e.uvarint(uint64(len(m.Notifies)))
	for _, n := range m.Notifies {
		e.fileRef(n.File)
		e.uvarint(n.Version)
		e.uvarint(uint64(n.Size))
		e.uint32(n.Sum)
	}
	e.uvarint(uint64(len(m.Removed)))
	for _, r := range m.Removed {
		e.fileRef(r)
	}
}

func (m *BatchNotify) decode(d *decoder) {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf))/notifyEntryWireLen {
		d.fail("notify count exceeds frame")
		return
	}
	m.Notifies = make([]NotifyEntry, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var ne NotifyEntry
		ne.File = d.fileRef()
		ne.Version = d.uvarint()
		ne.Size = int64(d.uvarint())
		ne.Sum = d.uint32()
		m.Notifies = append(m.Notifies, ne)
	}
	n = d.uvarint()
	if d.err == nil && n > uint64(len(d.buf))/2 {
		d.fail("removed count exceeds frame")
		return
	}
	m.Removed = make([]FileRef, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Removed = append(m.Removed, d.fileRef())
	}
}
