package main

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
)

func frame(payload int) []byte {
	b := make([]byte, 4+payload)
	binary.BigEndian.PutUint32(b, uint32(payload))
	return b
}

func TestFollowerFramesSplitAcrossWrites(t *testing.T) {
	stream := append(append(frame(10), frame(0)...), frame(300)...)
	for chunk := 1; chunk <= len(stream); chunk++ {
		var f frameFollower
		var began int64
		for off := 0; off < len(stream); off += chunk {
			began += f.feed(stream[off:min(off+chunk, len(stream))])
		}
		if f.frames != 3 || began != 3 || f.remain != 0 || f.hdrLen != 0 || f.desynced {
			t.Fatalf("fed in pieces of %d: %d frames (%d reported), %d payload bytes and %d prefix bytes pending, desynced %v",
				chunk, f.frames, began, f.remain, f.hdrLen, f.desynced)
		}
	}
}

func TestFollowerCoalescedFrames(t *testing.T) {
	var stream []byte
	for i := 0; i < 100; i++ {
		stream = append(stream, frame(i%7)...)
	}
	// A partial frame at the end has begun and is counted; its payload is
	// still owed.
	stream = append(stream, frame(50)[:4+20]...)
	var f frameFollower
	if began := f.feed(stream); began != 101 || f.frames != 101 || f.remain != 30 {
		t.Fatalf("one write of 100 frames and a partial one: %d frames (%d reported), %d payload bytes pending", f.frames, began, f.remain)
	}
}

func TestFollowerFrameBound(t *testing.T) {
	var f frameFollower
	if f.feed(frame(0)[:4]); f.desynced {
		t.Fatal("an empty frame desynced the follower")
	}
	atBound := make([]byte, 4)
	binary.BigEndian.PutUint32(atBound, maxFrame)
	if f.feed(atBound); f.desynced || f.remain != maxFrame {
		t.Fatalf("a frame of exactly the bound: desynced %v, %d bytes pending", f.desynced, f.remain)
	}
	var g frameFollower
	over := make([]byte, 4)
	binary.BigEndian.PutUint32(over, maxFrame+1)
	g.feed(append(frame(3), over...))
	if !g.desynced || g.frames != 1 {
		t.Fatalf("a length prefix over the bound: desynced %v after %d frames", g.desynced, g.frames)
	}
	if began := g.feed(frame(1)); began != 0 || g.frames != 1 {
		t.Fatalf("a desynced follower went on counting: %d frames", g.frames)
	}
}

func TestCountConnMetersBothDirections(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var meter linkMeter
	c := &countConn{Conn: a, meter: &meter}
	up := append(frame(5), frame(9)...)
	down := frame(100)
	go func() {
		buf := make([]byte, len(up))
		_, _ = io.ReadFull(b, buf) // the test's assertions below catch a short read
		_, _ = b.Write(down)
	}()
	// Two frames in one write, then one frame read in two pieces.
	if _, err := c.Write(up); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(down))
	if _, err := io.ReadFull(c, buf[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, buf[4:]); err != nil {
		t.Fatal(err)
	}
	got := meter.totals()
	want := linkTotals{upBytes: int64(len(up)), upFrames: 2, downBytes: int64(len(down)), downFrames: 1}
	if got != want || meter.desynced.Load() != 0 {
		t.Fatalf("meter read %+v (desynced %d), want %+v", got, meter.desynced.Load(), want)
	}
}
