package wire

import (
	"encoding/hex"
	"testing"
	"testing/quick"
)

// TestPreV5FramesByteIdentical pins the exact wire bytes of representative
// client-session frames (the peer kinds have their own goldens below). The
// hex strings were captured from the encoder that predates the peer kinds; a
// mismatch here means the encoding of a message changed — which, with one
// protocol version and no negotiation, nothing may do silently. HELLO_OK is
// the one frame that differs from that capture: its protocol field is now
// always encoded.
func TestPreV5FramesByteIdentical(t *testing.T) {
	ref := FileRef{Domain: "nfs.purdue", FileID: "arthur:/u/comer/heat.f"}
	golden := []struct {
		msg Message
		hex string
	}{
		{&Hello{Protocol: ProtocolVersion, User: "comer", Domain: "nfs.purdue", ClientHost: "arthur"},
			"010505636f6d65720a6e66732e70757264756506617274687572"},
		{&HelloOK{Session: 43, ServerName: "cyber205", Protocol: ProtocolVersion},
			"022b08637962657232303505"},
		{&Notify{File: ref, Version: 7, Size: 102400, Sum: 0xDEADBEEF},
			"030a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e660780a006efbeadde"},
		{&Pull{File: ref, HaveVersion: 6, WantVersion: 7},
			"040a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e660607"},
		{&FileDelta{File: ref, BaseVersion: 6, Version: 7, Encoded: []byte{1, 2, 3}, Compressed: true},
			"050a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e6606070301020301"},
		{&FileAck{File: ref, Version: 7},
			"070a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e6607"},
		{&Submit{Script: []byte("wc heat.f\n"), Inputs: []JobInput{{File: ref, Version: 7, As: "heat.f"}}, WantOutputDelta: true},
			"080a776320686561742e660a010a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e660706686561742e6600000001"},
		{&FileManifest{File: ref, Version: 7, Sum: 0xFEEDF00D, Chunks: []ChunkRef{{Hash: [16]byte{1, 2, 3}, Len: 1024}}, Inline: []InlineChunk{{Index: 0, Data: []byte("x")}}},
			"110a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e66070df0edfe0101020300000000000000000000000000800801000178"},
		{&TreeHead{Root: "arthur:/u/comer/project", Hash: [16]byte{0xAA, 1, 2}, Count: 10000},
			"14176172746875723a2f752f636f6d65722f70726f6a656374aa010200000000000000000000000000904e"},
		{&BatchNotify{Notifies: []NotifyEntry{{File: ref, Version: 7, Size: 12, Sum: 9}}},
			"16010a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e66070c0900000000"},
		{&Bye{}, "10"},
	}
	for _, g := range golden {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("bad golden hex for %s: %v", g.msg.Kind(), err)
		}
		got := Marshal(g.msg)
		if hex.EncodeToString(got) != g.hex {
			t.Errorf("%s frame changed:\n got %x\nwant %x", g.msg.Kind(), got, want)
		}
	}
}

// TestPeerKindsAboveV4Range pins that the peer kinds sit strictly above every
// client-session kind and clear of the trace flag: they are the type-level
// gate between a link's traffic and a client's.
func TestPeerKindsAboveV4Range(t *testing.T) {
	for _, k := range []Kind{KindPeerHello, KindPeerNotify, KindPeerDelta, KindPeerChunk} {
		if k <= KindBatchNotify {
			t.Errorf("kind %s = %d overlaps the client kind range", k, k)
		}
		if uint8(k)&traceFlag != 0 {
			t.Errorf("kind %s = %d collides with the trace flag", k, k)
		}
	}
}

// TestPeerDeltaNegative pins the negative-answer convention.
func TestPeerDeltaNegative(t *testing.T) {
	if !(&PeerDelta{File: FileRef{Domain: "d", FileID: "f"}}).Negative() {
		t.Error("version-0 PeerDelta should be negative")
	}
	if (&PeerDelta{Version: 3}).Negative() {
		t.Error("version-3 PeerDelta should not be negative")
	}
}

// TestPeerFramePropertyRoundTrip: any PeerNotify/PeerDelta/PeerChunk
// survives the codec, traced or untraced.
func TestPeerFramePropertyRoundTrip(t *testing.T) {
	f := func(dom, file string, have, want uint64, enc []byte, comp bool, sum uint32, hash [16]byte, clen uint32, traceID uint64) bool {
		ref := FileRef{Domain: dom, FileID: file}
		tc := TraceContext{TraceID: traceID, SpanID: 1}
		for _, m := range []Message{
			&PeerHello{Instance: dom},
			&PeerNotify{File: ref, HaveVersion: have, WantVersion: want},
			&PeerDelta{File: ref, BaseVersion: have, Version: want, Encoded: enc, Compressed: comp},
			&PeerChunk{File: ref, Version: want, Sum: sum, Chunks: []ChunkRef{{Hash: hash, Len: clen}}},
		} {
			buf := MarshalTraced(m, tc)
			got, gotTC, err := UnmarshalTraced(buf)
			if err != nil {
				return false
			}
			if tc.Valid() && gotTC != tc {
				return false
			}
			if hex.EncodeToString(Marshal(got)) != hex.EncodeToString(Marshal(m)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPeerFramesUntracedByteIdentical pins the exact wire bytes of the v5
// peer kinds, untraced and traced. Peer frames carrying no trace context
// must stay byte-identical to what the original v5 encoder produced — the
// trace header is strictly opt-in, present only when the 0x80 kind bit is
// set — and the traced encoding must be exactly that header (flagged kind +
// uvarint trace/span ids) followed by the identical untraced body.
func TestPeerFramesUntracedByteIdentical(t *testing.T) {
	ref := FileRef{Domain: "nfs.purdue", FileID: "arthur:/u/comer/heat.f"}
	tc := TraceContext{TraceID: 0xA11CE, SpanID: 3}
	golden := []struct {
		msg            Message
		hex, tracedHex string
	}{
		{&PeerHello{Instance: "super2"},
			"1706737570657232",
			"97cea3280306737570657232"},
		{&PeerNotify{File: ref, HaveVersion: 6, WantVersion: 7},
			"180a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e660607",
			"98cea328030a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e660607"},
		{&PeerDelta{File: ref, BaseVersion: 6, Version: 7, Encoded: []byte{1, 2, 3}, Compressed: true},
			"190a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e6606070301020301",
			"99cea328030a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e6606070301020301"},
		{&PeerChunk{File: ref, Version: 7, Sum: 0xFEEDF00D, Chunks: []ChunkRef{{Hash: [16]byte{1, 2, 3}, Len: 1024}}},
			"1a0a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e66070df0edfe01010203000000000000000000000000008008",
			"9acea328030a6e66732e707572647565166172746875723a2f752f636f6d65722f686561742e66070df0edfe01010203000000000000000000000000008008"},
	}
	for _, g := range golden {
		if got := hex.EncodeToString(Marshal(g.msg)); got != g.hex {
			t.Errorf("%s untraced frame changed:\n got %s\nwant %s", g.msg.Kind(), got, g.hex)
		}
		// A zero context must produce the untraced bytes, not a degenerate
		// header — this is what keeps untraced peer traffic v5-identical.
		if got := hex.EncodeToString(MarshalTraced(g.msg, TraceContext{})); got != g.hex {
			t.Errorf("%s zero-context MarshalTraced diverged from Marshal:\n got %s\nwant %s", g.msg.Kind(), got, g.hex)
		}
		if got := hex.EncodeToString(MarshalTraced(g.msg, tc)); got != g.tracedHex {
			t.Errorf("%s traced frame changed:\n got %s\nwant %s", g.msg.Kind(), got, g.tracedHex)
		}
		// Structural pin: the traced frame is the flagged kind byte, the two
		// uvarint ids, then the untraced body verbatim.
		untraced, traced := Marshal(g.msg), MarshalTraced(g.msg, tc)
		if traced[0] != untraced[0]|0x80 {
			t.Errorf("%s traced kind byte = %#x, want %#x", g.msg.Kind(), traced[0], untraced[0]|0x80)
		}
		body := traced[1:]
		for i := 0; i < 2; i++ { // skip the two uvarints
			n := 0
			for body[n]&0x80 != 0 {
				n++
			}
			body = body[n+1:]
		}
		if hex.EncodeToString(body) != hex.EncodeToString(untraced[1:]) {
			t.Errorf("%s traced body diverges from untraced body", g.msg.Kind())
		}
	}
}

// FuzzTracedPeerFrames seeds every truncation of the trace-context-bearing
// (0x80-bit) peer frames: the trace header adds a second variable-length
// region before the body, so cuts through the header and through the body
// shifted by it are distinct corpus territory from the untraced seeds in
// FuzzUnmarshal. The invariants mirror that fuzzer's: no panic, and any
// frame that decodes re-encodes stably with the same context.
func FuzzTracedPeerFrames(f *testing.F) {
	ref := FileRef{Domain: "nfs.purdue", FileID: "arthur:/u/comer/heat.f"}
	tc := TraceContext{TraceID: 0xA11CE, SpanID: 3}
	seeds := []Message{
		&PeerHello{Instance: "super2"},
		&PeerNotify{File: ref, HaveVersion: 6, WantVersion: 7},
		&PeerDelta{File: ref, BaseVersion: 6, Version: 7, Encoded: []byte{1, 2, 3}, Compressed: true},
		&PeerDelta{File: ref}, // negative answer
		&PeerChunk{File: ref, Version: 7, Sum: 0xFEEDF00D, Chunks: []ChunkRef{{Hash: [16]byte{1, 2, 3}, Len: 1024}}},
	}
	for _, m := range seeds {
		full := MarshalTraced(m, tc)
		for cut := 0; cut <= len(full); cut++ {
			f.Add(full[:cut])
		}
		// Maximal ids exercise the longest uvarint header encodings.
		f.Add(MarshalTraced(m, TraceContext{TraceID: ^uint64(0), SpanID: ^uint64(0)}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, gotTC, err := UnmarshalTraced(data)
		if err != nil {
			return
		}
		re := MarshalTraced(m, gotTC)
		m2, tc2, err := UnmarshalTraced(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if tc2 != gotTC {
			t.Fatalf("trace context unstable: %+v -> %+v", gotTC, tc2)
		}
		if hex.EncodeToString(Marshal(m2)) != hex.EncodeToString(Marshal(m)) {
			t.Fatalf("message body unstable across re-encode")
		}
	})
}
