// Package chunk implements content-defined chunking and a hash-addressed,
// refcounted chunk store — the sub-file deduplication layer beneath the
// shadow cache and the v3 transfer path.
//
// A file's content is split at boundaries chosen by a rolling (gear) hash of
// the bytes themselves, so an insertion or deletion only reshuffles the
// chunks it touches: the chunks before the edit keep their boundaries
// verbatim, and the splitter resynchronizes within a chunk or two after it
// (the edit-robustness that recursive content-dependent shingling is after).
// Each chunk is addressed by a truncated SHA-256 of its content, a file
// becomes a Manifest — an ordered list of (hash, length) refs — and identical
// chunks across users, files and versions are stored once in a refcounted
// Store. Byte accounting, eviction and wire transfer all move to unique-chunk
// granularity: the cache charges only unique bytes, eviction frees a chunk
// only when its last referencing manifest is gone, and a transfer ships only
// the chunks the receiver does not already hold.
package chunk

import (
	"bytes"
	"crypto/sha256"
	"fmt"
)

// HashSize is the size of a chunk address: SHA-256 truncated to 16 bytes.
// 128 bits keeps accidental collision probability negligible (~2^-64 at a
// billion chunks) while halving manifest size on the wire.
const HashSize = 16

// Hash addresses one chunk by its content.
type Hash [HashSize]byte

// HashOf computes the content address of data.
func HashOf(data []byte) Hash {
	sum := sha256.Sum256(data)
	var h Hash
	copy(h[:], sum[:HashSize])
	return h
}

// String renders the hash in hex (diagnostics, /cachez).
func (h Hash) String() string { return fmt.Sprintf("%x", h[:]) }

// Ref is one manifest entry: a chunk's address and its length. Offsets are
// implicit — the chunks of a manifest are contiguous, so a ref's offset is
// the prefix sum of the lengths before it.
type Ref struct {
	Hash Hash
	Len  uint32
}

// Manifest is a file's content as an ordered list of chunk refs.
type Manifest []Ref

// TotalLen returns the logical content length the manifest describes.
func (m Manifest) TotalLen() int64 {
	var n int64
	for _, r := range m {
		n += int64(r.Len)
	}
	return n
}

// Fingerprint condenses the manifest into one content address: the hash of
// its refs in order (each ref's hash and length). Two files have equal
// fingerprints exactly when their chunkings — and therefore, for one set of
// Params, their contents — are equal, which is what makes a fingerprint
// usable as a Merkle leaf in directory reconciliation. The empty manifest
// (an empty file) has a well-defined fingerprint too.
func (m Manifest) Fingerprint() Hash {
	h := sha256.New()
	var buf [HashSize + 4]byte
	for _, r := range m {
		copy(buf[:HashSize], r.Hash[:])
		buf[HashSize] = byte(r.Len)
		buf[HashSize+1] = byte(r.Len >> 8)
		buf[HashSize+2] = byte(r.Len >> 16)
		buf[HashSize+3] = byte(r.Len >> 24)
		h.Write(buf[:])
	}
	var sum [sha256.Size]byte
	var out Hash
	copy(out[:], h.Sum(sum[:0])[:HashSize])
	return out
}

// Params bound the splitter's chunk sizes. Avg must be a power of two: it
// becomes the boundary mask, giving an expected chunk size of Avg bytes on
// random content.
type Params struct {
	Min int // no boundary before Min bytes
	Avg int // expected chunk size; must be a power of two
	Max int // forced boundary at Max bytes
}

// DefaultParams suits the service's file sizes (KB to tens of KB): small
// enough that a clustered edit dirties only a chunk or two of an 8 KB file,
// large enough that manifests stay tens of entries.
var DefaultParams = Params{Min: 256, Avg: 1024, Max: 4096}

// validate panics on malformed params — these are programmer constants, not
// runtime input.
func (p Params) validate() {
	if p.Min <= 0 || p.Max < p.Min || p.Avg < p.Min || p.Avg > p.Max || p.Avg&(p.Avg-1) != 0 {
		panic(fmt.Sprintf("chunk: bad params %+v", p))
	}
}

// gearTable is the splitter's byte-to-noise mapping, generated
// deterministically (splitmix64) so every build — both ends of the wire —
// chunks identically.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// Split splits data into content-defined chunks. The boundary test consults
// only the trailing bytes of the rolling window, so equal content always
// yields equal boundaries regardless of what preceded a forced cut.
func Split(data []byte, p Params) Manifest {
	return SplitFrom(nil, nil, data, p)
}

// resyncWindow is how many of prev's unmatched chunks SplitFrom compares a
// fresh cut with; after a longer deletion the rest is cut and hashed.
const resyncWindow = 8

// SplitFrom returns Split(data, p), derived from prev = Split(prevData, p) at
// a cost in proportion to the edit between them (DESIGN.md §6.3). cut decides
// a chunk's length from its own bytes, so at a boundary of Split(data) a
// chunk of prev whose bytes come next is Split's next chunk too: it is taken
// whole, with no cut and no hash. prev's last chunk ends at EOF and is taken
// only where it ends data too. The walk tries the chunk of prev where it
// would be had every edit since the last match kept its length; failing
// that, it cuts as Split does and looks for the cut among the next
// resyncWindow unmatched chunks of prev. Only a chunk found nowhere is
// hashed. Resplit is the server's derivation, from an apply's spans.
func SplitFrom(prev Manifest, prevData, data []byte, p Params) Manifest {
	p.validate()
	if len(data) == 0 {
		return nil
	}
	mask := uint64(p.Avg - 1)
	// Pre-sized for the expected chunk count, to stay at one allocation.
	m := make(Manifest, 0, max(len(data)/p.Avg, len(prev))+2)
	var (
		pi, po int // prev's first chunk not yet matched, and its offset in prevData
		gi, ga int // prev's first chunk at or past off-shift, and its offset
		shift  int // the data offset minus the prevData offset of the last match's end
	)
	for off := 0; off < len(data); {
		rest := data[off:]
		for gi < len(prev) && ga < off-shift {
			ga += int(prev[gi].Len)
			gi++
		}
		if gi < len(prev) && ga == off-shift {
			n := int(prev[gi].Len)
			if n <= len(rest) && (gi < len(prev)-1 || n == len(rest)) && bytes.Equal(rest[:n], prevData[ga:ga+n]) {
				m = append(m, prev[gi])
				off, gi, ga = off+n, gi+1, ga+n
				pi, po = gi, ga
				continue
			}
		}
		n := cut(rest, p, mask)
		ref, matched := Ref{Len: uint32(n)}, false
		for j, o := pi, po; j < min(len(prev), pi+resyncWindow); j++ {
			l := int(prev[j].Len)
			if l == n && bytes.Equal(rest[:n], prevData[o:o+l]) {
				ref.Hash, matched = prev[j].Hash, true
				pi, po = j+1, o+l
				gi, ga, shift = pi, po, off+n-po
				break
			}
			o += l
		}
		if !matched {
			ref.Hash = HashOf(rest[:n])
		}
		m = append(m, ref)
		off += n
	}
	return m
}

// cut returns the length of the next chunk at the head of data: the first
// position past Min where the gear hash lands on the mask, or Max, or the
// end of data.
func cut(data []byte, p Params, mask uint64) int {
	n := len(data)
	if n <= p.Min {
		return n
	}
	if n > p.Max {
		n = p.Max
	}
	var h uint64
	// Warm the window over the Min prefix so the boundary decision at i
	// depends only on content, never on position relative to a prior cut.
	for i := p.Min - 64; i < p.Min; i++ {
		if i >= 0 {
			h = h<<1 + gearTable[data[i]]
		}
	}
	for i := p.Min; i < n; i++ {
		h = h<<1 + gearTable[data[i]]
		if h&mask == 0 {
			return i + 1
		}
	}
	return n
}
