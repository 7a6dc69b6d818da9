package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"testing/iotest"
)

// refFrames is the receive side StreamConn had before it buffered: two
// io.ReadFull calls per frame, one for the header and one for the payload,
// straight from the stream. It is the reference the buffered receive must
// match frame for frame and error for error. The payload buffer is cut to
// what the stream still holds (plus one byte), which changes nothing about
// what ReadFull returns and spares the test a 64 MiB allocation per hostile
// header.
func refFrames(stream []byte) (frames [][]byte, err error) {
	r := bytes.NewReader(stream)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return frames, err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > MaxFrame {
			return frames, ErrFrameTooLarge
		}
		p := make([]byte, min(int(n), r.Len()+1))
		if _, err := io.ReadFull(r, p); err != nil {
			return frames, err
		}
		frames = append(frames, p)
	}
}

// splitReaders are the ways a stream's bytes can be handed to the receiver:
// whole, a byte at a time, half of what is asked, the last bytes together
// with io.EOF, and in chunks of an odd fixed size.
var splitReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data-err", iotest.DataErrReader},
	{"chunks-1000", func(r io.Reader) io.Reader { return &chunkReader{r: r, n: 1000} }},
	{"chunks-70k", func(r io.Reader) io.Reader { return &chunkReader{r: r, n: 70 << 10} }},
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// readOnly makes a reader the io.ReadWriteCloser a StreamConn wants.
type readOnly struct{ io.Reader }

func (readOnly) Write(p []byte) (int, error) { return 0, errors.New("read-only stream") }
func (readOnly) Close() error                { return nil }

// checkFraming receives stream through a StreamConn fed by r, taking frame i
// with RecvReuse when bit i%16 of mix is set and with Recv otherwise, and
// compares every frame and the final error with the reference.
func checkFraming(t *testing.T, stream []byte, r io.Reader, mix uint16) {
	t.Helper()
	want, wantErr := refFrames(stream)
	sc := NewStreamConn(readOnly{r})
	owned := map[int][]byte{} // Recv's frames: the caller's for good
	var reused []byte         // RecvReuse's last frame: the connection's until the next receive
	var reusedWant []byte
	for i := 0; ; i++ {
		if reused != nil && !bytes.Equal(reused, reusedWant) {
			t.Fatalf("frame %d: the RecvReuse frame before it changed before this receive", i)
		}
		var got []byte
		var err error
		if mix>>(i%16)&1 == 1 {
			got, err = sc.RecvReuse()
		} else {
			got, err = sc.Recv()
		}
		if i == len(want) {
			if err == nil || err != wantErr {
				t.Fatalf("after %d frames: err %v, want %v", i, err, wantErr)
			}
			break
		}
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i, len(want), err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("frame %d: %d bytes, want %d (or contents differ)", i, len(got), len(want[i]))
		}
		reused, reusedWant = nil, nil
		if mix>>(i%16)&1 == 1 {
			reused, reusedWant = got, want[i]
			if cap(got) != len(got) {
				t.Fatalf("frame %d: spare capacity, so an append would overwrite the bytes read ahead", i)
			}
		} else {
			owned[i] = got
		}
	}
	for i, f := range owned {
		if !bytes.Equal(f, want[i]) {
			t.Fatalf("frame %d, returned by Recv, changed after later receives", i)
		}
	}
}

// frameStream concatenates length-prefixed frames of the given sizes, each
// filled from rng.
func frameStream(rng *rand.Rand, sizes []int) []byte {
	var out []byte
	for _, n := range sizes {
		out = binary.BigEndian.AppendUint32(out, uint32(n))
		start := len(out)
		out = append(out, make([]byte, n)...)
		rng.Read(out[start:])
	}
	return out
}

// TestStreamConnFramingProperty: whatever the frame sizes — around the
// buffer's size, just past the scratch bound, a megabyte — and however the
// stream's reads are split, the buffered receive yields the reference's
// frames; cut anywhere, mid-header or mid-payload, it ends with the
// reference's error.
func TestStreamConnFramingProperty(t *testing.T) {
	edges := []int{0, 1, minRecvBuf - 4, minRecvBuf, minRecvBuf + 1, bigScratch + 1, 1 << 20}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		sizes := make([]int, 0, 24)
		for len(sizes) < 24 {
			if rng.Intn(3) == 0 {
				sizes = append(sizes, edges[rng.Intn(len(edges))])
			} else {
				sizes = append(sizes, rng.Intn(300))
			}
		}
		stream := frameStream(rng, sizes)
		cuts := []int{len(stream), 0, 1, 2, 5, len(stream) - 1, rng.Intn(len(stream))}
		mix := uint16(rng.Intn(1 << 16))
		for _, sr := range splitReaders {
			if sr.name == "one-byte" && trial%4 != 0 {
				continue // a byte per read through a megabyte is slow under -race
			}
			for _, cut := range cuts {
				t.Run(fmt.Sprintf("trial%d/%s/cut%d", trial, sr.name, cut), func(t *testing.T) {
					checkFraming(t, stream[:cut], sr.wrap(bytes.NewReader(stream[:cut])), mix)
				})
			}
		}
	}
}

// FuzzStreamConnFraming: any byte stream, read whole or split, gives the
// reference's frames and error, with Recv and RecvReuse mixed as mix says.
func FuzzStreamConnFraming(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	f.Add(frameStream(rng, []int{0, 1, 5}), uint8(0), uint16(0))
	f.Add(frameStream(rng, []int{minRecvBuf - 4, minRecvBuf, minRecvBuf + 1}), uint8(1), uint16(0x5555))
	f.Add(frameStream(rng, []int{300, 2000, 12}), uint8(4), uint16(0xFFFF))
	f.Add([]byte{0, 0, 0}, uint8(2), uint16(1))
	f.Add([]byte{0, 0, 0, 9, 1, 2}, uint8(3), uint16(2))
	f.Add([]byte{0, 0, 0, 9, 1}, uint8(0), uint16(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}, uint8(5), uint16(3))
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3}, uint8(0), uint16(1))
	f.Fuzz(func(t *testing.T, stream []byte, split uint8, mix uint16) {
		sr := splitReaders[int(split)%len(splitReaders)]
		checkFraming(t, stream, sr.wrap(bytes.NewReader(stream)), mix)
	})
}

// TestStreamConnHostileHeaderCostsWhatArrived: a header that claims the
// largest legal frame and is followed by a few bytes and the end of the
// stream must cost the receiver about what arrived, not 64 MiB, and fail as
// before.
func TestStreamConnHostileHeaderCostsWhatArrived(t *testing.T) {
	for _, c := range []struct{ sent, limit int }{{10, 64 << 10}, {100 << 10, 1 << 20}} {
		stream := binary.BigEndian.AppendUint32(nil, MaxFrame)
		stream = append(stream, make([]byte, c.sent)...)
		for _, reuse := range []bool{false, true} {
			sc := NewStreamConn(readOnly{bytes.NewReader(stream)})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if reuse {
				_, err = sc.RecvReuse()
			} else {
				_, err = sc.Recv()
			}
			runtime.ReadMemStats(&after)
			if err != io.ErrUnexpectedEOF {
				t.Errorf("%d bytes, reuse=%v: err %v, want %v", c.sent, reuse, err, io.ErrUnexpectedEOF)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(c.limit) {
				t.Errorf("%d bytes, reuse=%v: receiving them allocated %d bytes", c.sent, reuse, got)
			}
		}
	}
}

// TestStreamConnReadsQueuedFramesAtOnce: frames already queued on the
// stream arrive in one read, however many there are.
func TestStreamConnReadsQueuedFramesAtOnce(t *testing.T) {
	stream := frameStream(rand.New(rand.NewSource(3)), []int{40, 15, 30, 120, 0, 9, 200, 12})
	r := &countingReader{r: bytes.NewReader(stream)}
	sc := NewStreamConn(readOnly{r})
	for i := 0; i < 8; i++ {
		if _, err := sc.RecvReuse(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if r.reads != 1 {
		t.Fatalf("8 queued frames took %d reads, want 1", r.reads)
	}
}

// countingReader counts its Read calls.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) { c.reads++; return c.r.Read(p) }

// TestSendBatchIsOneWrite: a batch leaves a StreamConn in one Write and
// reads back as the frames of separate sends; on any other transport it is
// one Send per message.
func TestSendBatchIsOneWrite(t *testing.T) {
	msgs := []Message{
		&Notify{File: FileRef{Domain: "d", FileID: "f"}, Version: 2, Size: 10, Sum: 3},
		&Submit{Script: []byte("checksum f\n"), Inputs: []JobInput{{File: FileRef{Domain: "d", FileID: "f"}, Version: 2, As: "f"}}, ClientTag: 9},
	}
	tc := TraceContext{TraceID: 4, SpanID: 5}
	var w countingWriter
	if err := SendBatch(NewStreamConn(&w), tc, msgs...); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, m := range msgs {
		frame := MarshalTraced(m, tc)
		want = append(binary.BigEndian.AppendUint32(want, uint32(len(frame))), frame...)
	}
	if w.writes != 1 || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("%d writes of %x, want 1 of %x", w.writes, w.Bytes(), want)
	}

	var sent recordingConn
	if err := SendBatch(&sent, tc, msgs...); err != nil {
		t.Fatal(err)
	}
	if len(sent.frames) != len(msgs) {
		t.Fatalf("%d sends on a plain Conn, want %d", len(sent.frames), len(msgs))
	}
	for i, m := range msgs {
		if !bytes.Equal(sent.frames[i], MarshalTraced(m, tc)) {
			t.Fatalf("send %d differs from MarshalTraced", i)
		}
	}
}

// TestSendBatchRefusesOversizedFrame: a batch with a frame above MaxFrame
// writes nothing.
func TestSendBatchRefusesOversizedFrame(t *testing.T) {
	var w countingWriter
	big := &FileFull{File: FileRef{Domain: "d", FileID: "f"}, Content: make([]byte, MaxFrame)}
	if err := SendBatch(NewStreamConn(&w), TraceContext{}, &Bye{}, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err %v, want ErrFrameTooLarge", err)
	}
	if w.writes != 0 {
		t.Fatalf("%d writes for a refused batch", w.writes)
	}
}

// countingWriter is a stream that counts its writes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) { w.writes++; return w.Buffer.Write(p) }
func (w *countingWriter) Close() error                { return nil }

// recordingConn is a message transport that keeps what it is sent.
type recordingConn struct{ frames [][]byte }

func (c *recordingConn) Send(p []byte) error   { c.frames = append(c.frames, p); return nil }
func (c *recordingConn) Recv() ([]byte, error) { return nil, io.EOF }
func (c *recordingConn) Close() error          { return nil }

// cycleFrames are the eight frames of a warm edit-small cycle (8 KiB file,
// 5 % edited, the checksum job), at the sizes the benchmark's wire meter
// records: about 720 bytes a cycle with their headers.
func cycleFrames() (up1, down1, up2, down2, up3 []Message) {
	ref := FileRef{Domain: "bench", FileID: "ws0:/u/u0/f000/data.dat"}
	delta := make([]byte, 404)
	for i := range delta {
		delta[i] = byte('a' + i%26)
	}
	up1 = []Message{
		&Notify{File: ref, Version: 41, Size: 8192, Sum: 0x9e3779b9},
		&Submit{Script: []byte("checksum data.dat\n"), Inputs: []JobInput{{File: ref, Version: 41, As: "data.dat"}}, ClientTag: 1<<40 + 41},
	}
	down1 = []Message{&Pull{File: ref, HaveVersion: 40, WantVersion: 41}, &SubmitOK{Job: 41}}
	up2 = []Message{&FileDelta{File: ref, Version: 41, BaseVersion: 40, Encoded: delta}}
	down2 = []Message{
		&FileAck{File: ref, Version: 41},
		&Output{Job: 41, State: JobDone, Stdout: []byte("checksum data.dat 2654435769 8192\n")},
	}
	up3 = []Message{&OutputAck{Job: 41}}
	return
}

// BenchmarkStreamConnCycle runs the eight frames of a warm edit-small cycle
// over a loopback TCP pair, shaped as the product sends them: the client's
// unbuffered StreamConn sends NOTIFY and SUBMIT as one batch, then
// FILE_DELTA, then OUTPUT_ACK; the server's write-buffered StreamConn
// answers PULL with SUBMIT_OK and FILE_ACK with OUTPUT, each pair in one
// flush. Both ends decode every frame, as their receive loops do. One
// iteration is one cycle.
func BenchmarkStreamConnCycle(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	sc, ok := <-accepted
	if !ok {
		b.Fatal("accept failed")
	}
	client, server := NewStreamConn(cc), NewBufferedStreamConn(sc, 32<<10)
	defer client.Close()
	defer server.Close()

	up1, down1, up2, down2, up3 := cycleFrames()
	recvN := func(c *StreamConn, n int) error {
		for ; n > 0; n-- {
			if _, _, err := RecvTracedReuse(c); err != nil {
				return err
			}
		}
		return nil
	}
	reply := func(msgs []Message) error {
		if err := SendBatch(server, TraceContext{}, msgs...); err != nil {
			return err
		}
		return server.Flush()
	}
	errc := make(chan error, 1)
	go func() {
		for {
			if err := recvN(server, len(up1)); err != nil {
				errc <- err
				return
			}
			if err := reply(down1); err != nil {
				errc <- err
				return
			}
			if err := recvN(server, len(up2)); err != nil {
				errc <- err
				return
			}
			if err := reply(down2); err != nil {
				errc <- err
				return
			}
			if err := recvN(server, len(up3)); err != nil {
				errc <- err
				return
			}
		}
	}()
	var wireBytes int
	for _, ms := range [][]Message{up1, down1, up2, down2, up3} {
		for _, m := range ms {
			wireBytes += 4 + len(Marshal(m))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SendBatch(client, TraceContext{}, up1...); err != nil {
			b.Fatal(err)
		}
		if err := recvN(client, len(down1)); err != nil {
			b.Fatal(err)
		}
		if err := SendBatch(client, TraceContext{}, up2...); err != nil {
			b.Fatal(err)
		}
		if err := recvN(client, len(down2)); err != nil {
			b.Fatal(err)
		}
		if err := SendBatch(client, TraceContext{}, up3...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(wireBytes), "wire-B/cycle")
	_ = client.Close()
	if err := <-errc; err == nil {
		b.Fatal("server loop ended without an error")
	}
}
