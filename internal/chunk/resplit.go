package chunk

// Span is one changed region between a base and a target version of a file:
// base bytes [BaseStart, BaseEnd) were replaced by target bytes
// [TargetStart, TargetEnd). Either side may be empty (a pure insertion or a
// pure deletion). Everything outside the spans of one edit is identical in
// the two versions, merely shifted.
type Span struct {
	BaseStart, BaseEnd     int
	TargetStart, TargetEnd int
}

// Resplit derives Split(target, p) from base = Split(baseContent, p) and the
// ascending, non-overlapping spans that turn baseContent into target, doing
// work proportional to the edit: a base ref is copied whenever its bytes lie
// wholly in unchanged territory and a new boundary falls on its start; only
// the stretch from the first chunk an edit touches to the next place a new
// boundary lands on an old one is cut and hashed again.
//
// Copying is exact, not approximate. cut decides a chunk's length from that
// chunk's own bytes alone — the rolling window is re-warmed from the chunk
// start — so equal bytes after equal boundaries give equal chunks. The one
// chunk whose length also depends on what follows it is the base's last (it
// ends where the file does), which is reused only if it ends the target too.
//
// base must be a manifest Split itself produced, and one whose lengths the
// caller can vouch for: a reused ref is never looked at again, so a Len that
// lies about its chunk would be copied into the result. The one malformation
// that would also stop the walk from advancing — an empty chunk, which Split
// never emits — is refused here.
//
// ok is false, and the caller must Split in full, when base has an empty
// chunk or the spans do not describe an edit from a file of base's length to
// target: out of order, overlapping, or disagreeing with either length.
func Resplit(base Manifest, target []byte, spans []Span, p Params) (m Manifest, ok bool) {
	p.validate()
	baseLen := 0
	for _, r := range base {
		if r.Len == 0 {
			return nil, false
		}
		baseLen += int(r.Len)
	}
	// shift is the target minus the base offset of the unchanged bytes that
	// follow the spans seen so far.
	shift := 0
	for i, s := range spans {
		if s.BaseStart < 0 || s.BaseEnd < s.BaseStart || s.BaseEnd > baseLen ||
			s.TargetStart != s.BaseStart+shift || s.TargetEnd < s.TargetStart ||
			(i > 0 && s.BaseStart < spans[i-1].BaseEnd) {
			return nil, false
		}
		shift = s.TargetEnd - s.BaseEnd
	}
	if baseLen+shift != len(target) {
		return nil, false
	}
	if len(target) == 0 {
		return nil, true
	}

	mask := uint64(p.Avg - 1)
	m = make(Manifest, 0, len(base)+len(spans)+1)
	var (
		to     int // target bytes covered by m so far
		si     int // first span not wholly behind to
		bi, bo int // base chunk cursor and that chunk's base offset
	)
	shift = 0
	for to < len(target) {
		for si < len(spans) && spans[si].TargetEnd <= to {
			shift = spans[si].TargetEnd - spans[si].BaseEnd
			si++
		}
		// The base may not change before untouched; with no span left
		// that is its end.
		untouched := baseLen
		if si < len(spans) {
			untouched = spans[si].BaseStart
		}
		if si == len(spans) || spans[si].TargetStart >= to {
			// to is outside every span, so it has a base position; see
			// whether an old chunk starts exactly there.
			for bi < len(base) && bo < to-shift {
				bo += int(base[bi].Len)
				bi++
			}
			if bi < len(base) && bo == to-shift {
				n := int(base[bi].Len)
				if bo+n <= untouched && (bi < len(base)-1 || to+n == len(target)) {
					m = append(m, base[bi])
					to += n
					continue
				}
			}
		}
		n := cut(target[to:], p, mask)
		m = append(m, Ref{Hash: HashOf(target[to : to+n]), Len: uint32(n)})
		to += n
	}
	return m, true
}
