package main

import (
	"encoding/binary"
	"net"
	"sync/atomic"
)

// linkMeter totals the traffic of every client link of one deployment, in
// both directions. Up is client to server.
type linkMeter struct {
	upBytes, upFrames     atomic.Int64
	downBytes, downFrames atomic.Int64
	// desynced counts link directions whose follower met a length prefix
	// above the protocol's frame bound and lost the frame boundaries.
	desynced atomic.Int64
}

type linkTotals struct {
	upBytes, upFrames, downBytes, downFrames int64
}

func (m *linkMeter) totals() linkTotals {
	return linkTotals{m.upBytes.Load(), m.upFrames.Load(), m.downBytes.Load(), m.downFrames.Load()}
}

func (t linkTotals) sub(o linkTotals) linkTotals {
	return linkTotals{t.upBytes - o.upBytes, t.upFrames - o.upFrames, t.downBytes - o.downBytes, t.downFrames - o.downFrames}
}

func (t linkTotals) bytes() int64  { return t.upBytes + t.downBytes }
func (t linkTotals) frames() int64 { return t.upFrames + t.downFrames }

// maxFrame is the wire protocol's frame bound (wire.MaxFrame), restated here
// so the follower's notion of a sane length prefix is the benchmark's own.
const maxFrame = 64 << 20

// frameFollower counts the frames in one direction of a byte stream framed
// by 4-byte big-endian length prefixes, however reads and writes split or
// coalesce them.
type frameFollower struct {
	hdr    [4]byte
	hdrLen int   // prefix bytes collected so far
	remain int64 // payload bytes of the current frame still to pass
	frames int64
	// desynced is set by a length prefix above maxFrame: the boundaries are
	// lost and no further frames are counted.
	desynced bool
}

// feed advances the follower over the next bytes of the stream and returns
// the number of frames that began in p.
func (f *frameFollower) feed(p []byte) (began int64) {
	for len(p) > 0 && !f.desynced {
		if f.remain > 0 {
			n := min(int64(len(p)), f.remain)
			f.remain -= n
			p = p[n:]
			continue
		}
		n := copy(f.hdr[f.hdrLen:], p)
		f.hdrLen += n
		p = p[n:]
		if f.hdrLen < len(f.hdr) {
			break
		}
		f.hdrLen = 0
		size := int64(binary.BigEndian.Uint32(f.hdr[:]))
		if size > maxFrame {
			f.desynced = true
			break
		}
		f.remain = size
		f.frames++
		began++
	}
	return began
}

// countConn sits under wire.NewStreamConn and meters what crosses it, so the
// product's framing fast paths (single-write sends, reusable receive
// buffers) run exactly as they do on a bare socket. Writes are serialized by
// the stream's send mutex and reads by its receive mutex, which is all the
// synchronization the two followers need.
type countConn struct {
	net.Conn
	meter    *linkMeter
	up, down frameFollower
}

// meterFeed advances one direction's follower and publishes what it saw.
func (c *countConn) meterFeed(f *frameFollower, p []byte, bytes, frames *atomic.Int64) {
	was := f.desynced
	bytes.Add(int64(len(p)))
	frames.Add(f.feed(p))
	if f.desynced && !was {
		c.meter.desynced.Add(1)
	}
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.meterFeed(&c.up, p[:n], &c.meter.upBytes, &c.meter.upFrames)
	return n, err
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.meterFeed(&c.down, p[:n], &c.meter.downBytes, &c.meter.downFrames)
	return n, err
}
