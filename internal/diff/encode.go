package diff

import (
	"encoding/binary"
	"fmt"
)

// Binary delta encoding. This is what the shadow protocol transmits: compact
// (varint-coded), exact for every byte sequence (unlike ed scripts), and
// self-verifying (both checksums travel with the ops).
//
// Layout:
//
//	magic   "SD1"            3 bytes
//	alg     byte
//	baseLen, targetLen       uvarint
//	baseSum, targetSum       4 bytes LE each
//	nops                     uvarint
//	per op:
//	  kind                   byte
//	  baseStart              uvarint
//	  baseEnd                uvarint (delete/change/copy only)
//	  nlines                 uvarint (insert/change only)
//	  per line: len uvarint, bytes

const encodeMagic = "SD1"

// Encode serializes the delta into its binary wire form. WireSize computes
// the exact length of the result, so the buffer never reallocates.
func (d *Delta) Encode() []byte {
	buf := make([]byte, 0, d.WireSize())
	buf = append(buf, encodeMagic...)
	buf = append(buf, byte(d.Algorithm))
	buf = binary.AppendUvarint(buf, uint64(d.BaseLen))
	buf = binary.AppendUvarint(buf, uint64(d.TargetLen))
	buf = binary.LittleEndian.AppendUint32(buf, d.BaseSum)
	buf = binary.LittleEndian.AppendUint32(buf, d.TargetSum)
	buf = binary.AppendUvarint(buf, uint64(len(d.Ops)))
	for _, op := range d.Ops {
		buf = append(buf, byte(op.Kind))
		buf = binary.AppendUvarint(buf, uint64(op.BaseStart))
		switch op.Kind {
		case OpDelete, OpChange, OpCopy:
			buf = binary.AppendUvarint(buf, uint64(op.BaseEnd))
		}
		switch op.Kind {
		case OpInsert, OpChange:
			buf = binary.AppendUvarint(buf, uint64(len(op.Lines)))
			for _, l := range op.Lines {
				buf = binary.AppendUvarint(buf, uint64(len(l)))
				buf = append(buf, l...)
			}
		}
	}
	return buf
}

// Decode parses a delta from its binary wire form.
//
// The returned Delta's inserted lines alias buf (no copies are made), so the
// caller must keep buf unchanged while the Delta is in use. The one decode
// site in this codebase applies the delta synchronously on message-owned
// bytes.
func Decode(buf []byte) (*Delta, error) {
	r := &reader{buf: buf}
	if string(r.bytes(3)) != encodeMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptDelta)
	}
	d := &Delta{Algorithm: Algorithm(r.byte())}
	d.BaseLen = int(r.uvarint())
	d.TargetLen = int(r.uvarint())
	d.BaseSum = r.uint32()
	d.TargetSum = r.uint32()
	// Counts size allocations, so each is checked against what the unread
	// bytes could hold: at least three per op, at least one per line.
	nops := r.uvarint()
	if r.err == nil && nops > uint64(len(r.buf))/3 {
		return nil, fmt.Errorf("%w: op count %d exceeds input", ErrCorruptDelta, nops)
	}
	sawCopy := false
	d.Ops = make([]Op, 0, nops)
	for i := uint64(0); i < nops && r.err == nil; i++ {
		op := Op{Kind: OpKind(r.byte())}
		op.BaseStart = int(r.uvarint())
		switch op.Kind {
		case OpDelete, OpChange, OpCopy:
			op.BaseEnd = int(r.uvarint())
			if op.Kind == OpCopy {
				sawCopy = true
			}
		case OpInsert:
		default:
			return nil, fmt.Errorf("%w: unknown op kind %d", ErrCorruptDelta, op.Kind)
		}
		switch op.Kind {
		case OpInsert, OpChange:
			nlines := r.uvarint()
			if r.err == nil && nlines > uint64(len(r.buf)) {
				return nil, fmt.Errorf("%w: line count %d exceeds input", ErrCorruptDelta, nlines)
			}
			op.Lines = make([][]byte, 0, nlines)
			for j := uint64(0); j < nlines && r.err == nil; j++ {
				n := r.uvarint()
				op.Lines = append(op.Lines, r.bytes(int(n)))
			}
		}
		d.Ops = append(d.Ops, op)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptDelta, len(r.buf))
	}
	// Classify once at decode time so Apply never rescans the ops.
	if sawCopy || d.Algorithm == TichyBlockMove {
		d.kind = kindBlockMove
	} else {
		d.kind = kindEdit
	}
	return d, nil
}

// reader is a cursor over an encoded delta that latches the first error.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated", ErrCorruptDelta)
	}
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf) {
		r.fail()
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) byte() byte {
	b := r.bytes(1)
	if len(b) != 1 {
		return 0
	}
	return b[0]
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) uint32() uint32 {
	b := r.bytes(4)
	if len(b) != 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
