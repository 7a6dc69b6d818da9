package jobs

import (
	"bytes"
	"encoding/binary"
	"slices"

	"shadowedit/internal/diff"
)

// sortRec is one line in sort's order: key holds its eight bytes from the
// depth being sorted, big-endian and zero-padded, and line indexes it.
type sortRec struct {
	key  uint64
	line int
}

// smallRun is the run length below which a comparison sort beats another
// radix pass.
const smallRun = 24

// lineSorter orders a line index by the lines' bytes, the order sort.Strings
// gives, without copying a line: a radix sort on each line's first eight
// bytes, then each run of equal keys on the eight bytes past the prefix its
// lines share.
type lineSorter struct {
	content []byte
	lines   []span
	tmp     []sortRec
}

// sortLines returns the lines of content, in order, as indexes into lines.
func sortLines(content []byte, lines []span) []sortRec {
	n := len(lines)
	buf := make([]sortRec, 2*n)
	recs := buf[:n:n]
	for i := range recs {
		recs[i].line = i
	}
	s := &lineSorter{content: content, lines: lines, tmp: buf[n:]}
	s.sort(recs, 0)
	return recs
}

func (s *lineSorter) text(r sortRec) []byte {
	sp := s.lines[r.line]
	return s.content[sp.start:sp.end]
}

// sort orders recs, whose lines agree on their first depth bytes.
func (s *lineSorter) sort(recs []sortRec, depth int) {
	if len(recs) < smallRun {
		slices.SortFunc(recs, func(a, b sortRec) int {
			return bytes.Compare(s.text(a)[depth:], s.text(b)[depth:])
		})
		return
	}
	for i := range recs {
		var k uint64
		if p := s.text(recs[i])[depth:]; len(p) >= 8 {
			k = binary.BigEndian.Uint64(p)
		} else {
			for j, c := range p {
				k |= uint64(c) << (56 - 8*j)
			}
		}
		recs[i].key = k
	}
	s.radix(recs)
	for lo := 0; lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && recs[hi].key == recs[lo].key {
			hi++
		}
		if run := recs[lo:hi]; len(run) > 1 {
			// The run's lines share their first shared bytes. A line that
			// ends there is that prefix of every other, so those lead and
			// the rest are sorted on from there.
			first := s.text(run[0])
			shared := len(first)
			for _, r := range run[1:] {
				shared = min(shared, depth+diff.CommonPrefixLen(first[depth:], s.text(r)[depth:]))
			}
			ended := 0
			for i, r := range run {
				if s.lines[r.line].len() == shared {
					run[ended], run[i] = run[i], run[ended]
					ended++
				}
			}
			s.sort(run[ended:], shared)
		}
		lo = hi
	}
}

// radix sorts recs by key, least significant byte first, skipping each byte
// on which every key agrees.
func (s *lineSorter) radix(recs []sortRec) {
	var counts [8][256]int
	for _, r := range recs {
		k := r.key
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := recs, s.tmp[:len(recs)]
	for b := range counts {
		c := &counts[b]
		if c[byte(src[0].key>>(8*b))] == len(src) {
			continue
		}
		at := 0
		for d, n := range c {
			c[d], at = at, at+n
		}
		for _, r := range src {
			d := byte(r.key >> (8 * b))
			dst[c[d]] = r
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
}
