package wire

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal explores the protocol decoder with arbitrary frames — with
// and without the optional trace-context header. The invariants: never
// panic, and any frame that decodes re-encodes (with its decoded context)
// to a payload that decodes to the same message and context (idempotent
// round trip).
func FuzzUnmarshal(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Marshal(m))
		f.Add(MarshalTraced(m, TraceContext{TraceID: 0xA11CE, SpanID: 3}))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add([]byte{byte(KindBye) | traceFlag})          // flag with no header
	f.Add([]byte{byte(KindBye) | traceFlag, 1, 2})    // minimal traced frame
	f.Add([]byte{byte(KindNotify) | traceFlag, 0, 0}) // zero trace id
	// Truncated peer frames (v5): every cut of each peer kind's sample, so
	// the decoder's count guards and hash reads are probed from the corpus.
	ref := FileRef{Domain: "nfs.purdue", FileID: "arthur:/u/comer/heat.f"}
	for _, m := range []Message{
		&PeerHello{Instance: "shadow-b"},
		&PeerNotify{File: ref, HaveVersion: 6, WantVersion: 7},
		&PeerDelta{File: ref, BaseVersion: 6, Version: 7, Encoded: []byte{1, 2, 3}, Compressed: true},
		&PeerChunk{File: ref, Version: 7, Sum: 0xFEEDF00D, Chunks: []ChunkRef{{Hash: [16]byte{1, 2, 3}, Len: 1024}}},
	} {
		full := Marshal(m)
		for cut := 0; cut < len(full); cut++ {
			f.Add(full[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, tc, err := UnmarshalTraced(data)
		if err != nil {
			return
		}
		re := MarshalTraced(m, tc)
		m2, tc2, err := UnmarshalTraced(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if tc2 != tc {
			t.Fatalf("trace context not stable: %+v != %+v", tc2, tc)
		}
		if !bytes.Equal(MarshalTraced(m2, tc2), re) {
			t.Fatalf("round trip not stable")
		}
		// The untraced decoder must accept the same frame, yielding the
		// same message with the header stripped.
		if m3, err := Unmarshal(data); err != nil {
			t.Fatalf("Unmarshal rejected a frame UnmarshalTraced accepted: %v", err)
		} else if !bytes.Equal(Marshal(m3), Marshal(m)) {
			t.Fatalf("traced/untraced decoders disagree on the message")
		}
	})
}

// FuzzUnmarshalInto checks that decoding copies a frame into a message of
// its own: once UnmarshalTraced returns, overwriting the frame — what a
// connection's next Recv does to the buffer it lent (see Conn) — leaves the
// decoded message and trace context as they were. Seeds include truncated
// frames at several cut points, the crash class a decoder historically
// risks.
func FuzzUnmarshalInto(f *testing.F) {
	for _, m := range sampleMessages() {
		full := MarshalTraced(m, TraceContext{TraceID: 7, SpanID: 9})
		f.Add(full)
		for _, n := range []int{0, 1, 2, len(full) / 2, len(full) - 1} {
			if n >= 0 && n < len(full) {
				f.Add(full[:n])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := bytes.Clone(data)
		m, tc, err := UnmarshalTraced(frame)
		if len(data) == 0 {
			if err == nil {
				t.Fatal("empty frame accepted")
			}
			return
		}
		if err != nil {
			return
		}
		want := MarshalTraced(m, tc)
		for i := range frame {
			frame[i] ^= 0xFF
		}
		if got := MarshalTraced(m, tc); !bytes.Equal(got, want) {
			t.Fatalf("the decoded message changed with the frame it came from:\n got %x\nwant %x", got, want)
		}
	})
}

// FuzzStreamFraming explores the length-prefixed stream codec.
func FuzzStreamFraming(f *testing.F) {
	f.Add([]byte("hello"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrame {
			return
		}
		var buf bytes.Buffer
		sc := NewStreamConn(nopCloser{&buf})
		if err := sc.Send(payload); err != nil {
			t.Fatalf("send: %v", err)
		}
		got, err := sc.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("frame round trip mismatch")
		}
	})
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }
