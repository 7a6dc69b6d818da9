package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
)

// encoder appends primitive fields to a buffer.
type encoder struct {
	buf []byte
}

func (e *encoder) byte(b byte)       { e.buf = append(e.buf, b) }
func (e *encoder) uvarint(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) uint32(v uint32)   { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) string(s string)   { e.uvarint(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *encoder) bytes(b []byte)    { e.uvarint(uint64(len(b))); e.buf = append(e.buf, b...) }
func (e *encoder) fileRef(f FileRef) { e.string(f.Domain); e.string(f.FileID) }
func (e *encoder) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// decoder reads primitive fields, latching the first error.
//
// Decoded strings are interned in a per-decoder table: protocol strings
// (domains, file ids, user and host names) recur on every cycle of a
// session, and decoders are pooled, so the steady state decodes them
// without allocating. The table is capped and flushed wholesale if a
// workload somehow produces unbounded distinct strings.
type decoder struct {
	buf      []byte
	err      error
	interned map[string]string
}

const (
	// maxInternedLen bounds the size of strings worth interning — beyond
	// this they are unlikely to recur and would pin memory in the pool.
	maxInternedLen = 256
	// maxInternedEntries caps the intern table; reaching it flushes the
	// table rather than evicting piecemeal.
	maxInternedEntries = 4096
)

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf) {
		d.fail("truncated")
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) byte() byte {
	b := d.take(1)
	if len(b) != 1 {
		return 0
	}
	return b[0]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) uint32() uint32 {
	b := d.take(4)
	if len(b) != 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail("string length exceeds frame")
		return ""
	}
	b := d.take(int(n))
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternedLen {
		return string(b)
	}
	// The map lookup keyed by string(b) does not allocate; only a miss
	// materializes the string.
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	if d.interned == nil {
		d.interned = make(map[string]string, 64)
	} else if len(d.interned) >= maxInternedEntries {
		clear(d.interned)
	}
	s := string(b)
	d.interned[s] = s
	return s
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail("byte length exceeds frame")
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) fileRef() FileRef {
	return FileRef{Domain: d.string(), FileID: d.string()}
}

// StreamConn adapts a reliable byte stream (a real TCP connection, a
// net.Pipe, a file) to the message-oriented Conn interface using 4-byte
// big-endian length framing.
//
// Each Send issues exactly one Write (header and payload are coalesced into
// one buffer) — one syscall per message on a socket. SendBatch, and a
// sender that builds a burst in Frames and hands it to WriteFrames, put
// several frames in that one Write.
//
// Receiving is buffered: one Read takes in every frame already queued on
// the stream (up to the buffer's size), and a frame that arrived whole is
// served without another syscall. Recv returns the frame in that receive
// buffer, so a steady receive loop performs no per-frame allocation. It
// starts at minRecvBuf and grows only as bytes arrive: a length header
// costs the receiver what the peer actually sent, not what it claims.
type StreamConn struct {
	rw io.ReadWriteCloser

	sendMu  sync.Mutex
	sendBuf []byte // Send scratch, guarded by sendMu
	sendHW  int    // high-water frame size, guides scratch retention

	recvMu sync.Mutex
	// recvBuf holds the bytes read from the stream, guarded by recvMu:
	// recvBuf[:recvOff] is consumed (its tail is the frame Recv last
	// returned), recvBuf[recvOff:] is read ahead of the caller.
	recvBuf []byte
	recvOff int
	recvHW  int // high-water frame size, guides buffer retention
	// recvOutlier marks recvBuf as grown for a frame far above the mark at
	// the time; see recvFrame.
	recvOutlier bool
}

var _ Conn = (*StreamConn)(nil)

// NewStreamConn frames messages over rw.
func NewStreamConn(rw io.ReadWriteCloser) *StreamConn {
	return &StreamConn{rw: rw}
}

// Send writes one length-prefixed frame.
func (s *StreamConn) Send(payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	// Coalesce header+payload so the frame is one Write — and, on a
	// socket, one syscall and one segment instead of two.
	s.sendBuf = binary.BigEndian.AppendUint32(s.sendBuf, uint32(len(payload)))
	s.sendBuf = append(s.sendBuf, payload...)
	_, err := s.rw.Write(s.sendBuf)
	s.sendBuf = retain(s.sendBuf, &s.sendHW)
	return err
}

// Frames is a sender's scratch of whole length-prefixed frames, built up to
// leave a StreamConn in one Write (WriteFrames). Its owner keeps it from one
// burst to the next, so the steady state marshals without allocating.
type Frames struct {
	buf []byte
	hw  int // high-water size, guides retention
}

// Append adds m, stamped with tc, as one frame. A frame above MaxFrame is
// refused with ErrFrameTooLarge and leaves f as it was.
func (f *Frames) Append(m Message, tc TraceContext) error {
	at := len(f.buf)
	f.buf = AppendMarshal(append(f.buf, 0, 0, 0, 0), m, tc)
	n := len(f.buf) - at - 4
	if n > MaxFrame {
		f.buf = f.buf[:at]
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(f.buf[at:], uint32(n))
	return nil
}

// Full reports whether f has grown past bigScratch: time to write it out
// rather than let a burst of big frames pile up.
func (f *Frames) Full() bool { return len(f.buf) > bigScratch }

// Payload empties f and marshals m, stamped with tc, into it without a
// header, for a transport's Send (which is finished with it on return).
func (f *Frames) Payload(m Message, tc TraceContext) []byte {
	f.buf = AppendMarshal(retain(f.buf, &f.hw), m, tc)
	return f.buf
}

// WriteFrames hands f's frames to the stream in one Write and empties f.
// An empty f writes nothing.
func (s *StreamConn) WriteFrames(f *Frames) error {
	if len(f.buf) == 0 {
		return nil
	}
	s.sendMu.Lock()
	_, err := s.rw.Write(f.buf)
	s.sendMu.Unlock()
	f.buf = retain(f.buf, &f.hw)
	return err
}

// bigScratch is the scratch size above which a buffer is kept only while
// frames that large are its steady state.
const bigScratch = 64 << 10

// retain returns buf, a send scratch just used, emptied for the next use —
// or nil, when it grew past bigScratch for an outlier: the one full copy
// that primes a file, among deltas, lets go of its scratch at once, not
// twenty frames later when the mark has decayed. hw is the scratch's
// high-water mark; a big scratch stays while big frames are the steady
// state. Every send path (Send, SendBatch, a writer's Frames) keeps its
// scratch by this one rule.
func retain(buf []byte, hw *int) []byte {
	steady := *hw
	*hw = highWater(*hw, len(buf))
	if cap(buf) > bigScratch && min(steady, *hw) <= bigScratch {
		return nil
	}
	return buf[:0]
}

// minRecvBuf is the receive buffer a connection starts with, and the least
// it shrinks back to: room for the small frames of a warm cycle to arrive
// in one read, small enough that ten thousand idle sessions don't notice.
const minRecvBuf = 1 << 10

// highWater tracks a running high-water mark that rises instantly and decays
// slowly, so scratch buffers stay pre-sized for the steady state while
// one-off outliers stop pinning memory.
func highWater(hw, n int) int {
	if n > hw {
		return n
	}
	return hw - (hw-n)/16
}

// Recv reads one length-prefixed frame and returns it in the connection's
// receive buffer: the slice is valid until the next Recv (see Conn).
func (s *StreamConn) Recv() ([]byte, error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	return s.recvFrame()
}

// recvFrame reads the next frame out of the receive buffer, filling it from
// the stream as needed; the caller holds recvMu. Errors are those of two
// io.ReadFull calls, one for the header and one for the payload.
func (s *StreamConn) recvFrame() ([]byte, error) {
	if err := s.fill(0, 4); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(s.recvBuf[s.recvOff:]))
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	// A big buffer is kept only while big frames are the steady state: one
	// grown for an outlier (the mark was low when it came) is let go by the
	// first ordinary frame after it.
	outlier := s.recvOutlier && n <= bigScratch
	if n > bigScratch {
		s.recvOutlier = s.recvHW <= bigScratch
	}
	s.recvHW = highWater(s.recvHW, n)
	if outlier {
		s.recvHW, s.recvOutlier = n, false
	}
	if ahead := s.recvBuf[s.recvOff:]; cap(s.recvBuf) > bigScratch && s.recvHW <= bigScratch && len(ahead) <= bigScratch {
		s.recvBuf = append(make([]byte, 0, max(minRecvBuf, len(ahead))), ahead...)
		s.recvOff = 0
	}
	if err := s.fill(4, 4+n); err != nil {
		return nil, err
	}
	start := s.recvOff + 4
	s.recvOff = start + n
	return s.recvBuf[start:s.recvOff:s.recvOff], nil
}

// fill reads from the stream until need bytes past recvOff are buffered.
// The bytes from base to need are what the caller asked io.ReadFull for
// before the buffer existed, and the errors are io.ReadFull's: io.EOF when
// the stream ends before any of them, io.ErrUnexpectedEOF when it ends
// partway through.
func (s *StreamConn) fill(base, need int) error {
	for len(s.recvBuf)-s.recvOff < need {
		if len(s.recvBuf) == cap(s.recvBuf) || (s.recvOff > 0 && cap(s.recvBuf)-s.recvOff < need) {
			s.makeRoom(need)
		}
		n, err := s.rw.Read(s.recvBuf[len(s.recvBuf):cap(s.recvBuf)])
		s.recvBuf = s.recvBuf[:len(s.recvBuf)+n]
		if err != nil {
			have := len(s.recvBuf) - s.recvOff
			switch {
			case have >= need:
				return nil
			case err == io.EOF && have > base:
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// makeRoom moves the bytes read ahead to the front of the receive buffer,
// growing it when they fill it: to twice their size, at most to need. Growth
// follows what has arrived, never what a header claims.
func (s *StreamConn) makeRoom(need int) {
	ahead := s.recvBuf[s.recvOff:]
	size := cap(s.recvBuf)
	if len(ahead) == size {
		size = max(minRecvBuf, min(need, 2*size))
	}
	buf := s.recvBuf[:0]
	if size > cap(buf) {
		buf = make([]byte, 0, size)
	}
	s.recvBuf = append(buf, ahead...)
	s.recvOff = 0
}

// Close closes the underlying stream.
func (s *StreamConn) Close() error { return s.rw.Close() }
