package wire

import (
	"bytes"
	"fmt"
	"net"
	"testing"
)

// The buffer-reuse paths (AppendMarshal, SendBatch, the receive buffer Recv
// lends) must be byte- and value-equivalent to the allocating paths, and
// recycled buffers must never leak bytes into a previously returned message.
// These tests pin both properties; the stress variants are meant to run
// under -race.

func TestAppendMarshalMatchesMarshalTraced(t *testing.T) {
	var scratch []byte
	for _, tc := range []TraceContext{{}, {TraceID: 0xBEEF, SpanID: 7}} {
		for _, m := range sampleMessages() {
			want := MarshalTraced(m, tc)
			// Reuse one scratch across every message: stale bytes from
			// the previous frame must never shine through.
			scratch = AppendMarshal(scratch[:0], m, tc)
			if !bytes.Equal(scratch, want) {
				t.Fatalf("%s (tc=%+v): AppendMarshal differs from MarshalTraced\n got %x\nwant %x",
					m.Kind(), tc, scratch, want)
			}
		}
	}
}

// stressContent derives frame i's payload deterministically so the receiver
// can verify any retained message later.
func stressContent(i int) []byte {
	b := make([]byte, i%97+1)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

// TestRecvRetainedMessageSurvives drives a one-directional stream the
// way the client readloop and server session loop do — SendBatch on one
// end, RecvTraced on the other — and checks, for every frame, that the
// message decoded from the PREVIOUS frame is still intact after the receive
// buffer has been recycled underneath it.
func TestRecvRetainedMessageSurvives(t *testing.T) {
	c1, c2 := net.Pipe()
	src, dst := NewStreamConn(c1), NewStreamConn(c2)
	defer src.Close()
	defer dst.Close()

	const frames = 2000
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for i := 0; i < frames; i++ {
			m := &FileFull{
				File:    FileRef{Domain: "d", FileID: fmt.Sprintf("f%d", i%7)},
				Version: uint64(i),
				Content: stressContent(i),
				Sum:     uint32(i),
			}
			var tc TraceContext
			if i%2 == 1 {
				tc = TraceContext{TraceID: uint64(i), SpanID: uint64(i) + 1}
			}
			if err := SendBatch(src, tc, m); err != nil {
				errc <- err
				return
			}
		}
	}()

	var prev *FileFull
	for i := 0; i < frames; i++ {
		m, tc, err := RecvTraced(dst)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		ff, ok := m.(*FileFull)
		if !ok {
			t.Fatalf("frame %d: got %T", i, m)
		}
		if ff.Version != uint64(i) || !bytes.Equal(ff.Content, stressContent(i)) {
			t.Fatalf("frame %d corrupt: version %d, content %x", i, ff.Version, ff.Content)
		}
		if i%2 == 1 && (tc.TraceID != uint64(i) || tc.SpanID != uint64(i)+1) {
			t.Fatalf("frame %d: trace context %+v", i, tc)
		}
		// The receive buffer for frame i has overwritten frame i-1's
		// bytes by now; the decoded message must not have noticed.
		if prev != nil {
			if prev.Version != uint64(i-1) || !bytes.Equal(prev.Content, stressContent(i-1)) {
				t.Fatalf("frame %d: retained message %d was clobbered by buffer reuse", i, i-1)
			}
		}
		prev = ff
	}
	if err := <-errc; err != nil {
		t.Fatalf("sender: %v", err)
	}
}

// TestRecvBidirectionalStress runs both directions of one connection
// pair at once — each side a dedicated SendBatch writer and a dedicated
// RecvTraced reader, the client+server shape — so the pooled encoders,
// send scratch and per-connection receive buffers are all exercised
// concurrently. Run with -race, this is the aliasing regression net.
func TestRecvBidirectionalStress(t *testing.T) {
	c1, c2 := net.Pipe()
	a, b := NewStreamConn(c1), NewStreamConn(c2)
	defer a.Close()
	defer b.Close()

	const frames = 1000
	run := func(conn *StreamConn, errc chan<- error) {
		go func() {
			for i := 0; i < frames; i++ {
				m := &Output{Job: uint64(i), State: JobDone, Stdout: stressContent(i)}
				if err := SendBatch(conn, TraceContext{TraceID: uint64(i + 1)}, m); err != nil {
					errc <- fmt.Errorf("send %d: %w", i, err)
					return
				}
			}
			errc <- nil
		}()
		go func() {
			var prev *Output
			for i := 0; i < frames; i++ {
				m, _, err := RecvTraced(conn)
				if err != nil {
					errc <- fmt.Errorf("recv %d: %w", i, err)
					return
				}
				out, ok := m.(*Output)
				if !ok || out.Job != uint64(i) || !bytes.Equal(out.Stdout, stressContent(i)) {
					errc <- fmt.Errorf("recv %d: corrupt %#v", i, m)
					return
				}
				if prev != nil && !bytes.Equal(prev.Stdout, stressContent(i-1)) {
					errc <- fmt.Errorf("recv %d: previous message clobbered", i)
					return
				}
				prev = out
			}
			errc <- nil
		}()
	}
	errc := make(chan error, 4)
	run(a, errc)
	run(b, errc)
	for i := 0; i < 4; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
