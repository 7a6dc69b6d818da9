package wire

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"testing/quick"
)

// sampleMessages is one fully-populated instance of every message type.
func sampleMessages() []Message {
	ref := FileRef{Domain: "nfs.purdue", FileID: "arthur:/u/comer/heat.f"}
	return []Message{
		&Hello{Protocol: ProtocolVersion, User: "comer", Domain: "nfs.purdue", ClientHost: "arthur"},
		&HelloOK{Session: 42, ServerName: "cyber205", Protocol: ProtocolVersion},
		&HelloOK{Session: 1 << 40, ServerName: "cyber205", Protocol: 300}, // multi-byte varints
		&Notify{File: ref, Version: 7, Size: 102400, Sum: 0xDEADBEEF},
		&Pull{File: ref, HaveVersion: 6, WantVersion: 7},
		&FileDelta{File: ref, BaseVersion: 6, Version: 7, Encoded: []byte{1, 2, 3}, Compressed: true},
		&FileFull{File: ref, Version: 7, Content: []byte("hello\nworld\n"), Sum: 99, Compressed: false},
		&FileAck{File: ref, Version: 7},
		&Submit{
			Script: []byte("wc heat.f\n"),
			Inputs: []JobInput{
				{File: ref, Version: 7, As: "heat.f"},
				{File: FileRef{Domain: "nfs.purdue", FileID: "arthur:/u/comer/mesh.dat"}, Version: 2, As: "mesh.dat"},
			},
			OutputFile:      "run.out",
			ErrorFile:       "run.err",
			RouteHost:       "printer-host",
			WantOutputDelta: true,
		},
		&SubmitOK{Job: 1001},
		&StatusReq{Job: 1001, All: false},
		&StatusReq{All: true},
		&StatusReply{Jobs: []JobStatus{
			{Job: 1001, State: JobRunning, Detail: "running for 3s"},
			{Job: 1002, State: JobQueued, Detail: ""},
		}},
		&Output{Job: 1001, State: JobDone, ExitCode: 0, Mode: OutputFull,
			Stdout: []byte("120 heat.f\n"), Stderr: nil, Compressed: false},
		&Output{Job: 1002, State: JobFailed, ExitCode: -1, Mode: OutputDelta,
			Stdout: []byte{9, 9}, Stderr: []byte("no such command\n"), Compressed: true},
		&OutputAck{Job: 1001},
		&OutputFullReq{Job: 1002},
		&ErrorMsg{Code: CodeUnknownFile, Text: "never heard of it"},
		&FileManifest{
			File: ref, Version: 7, Sum: 0xFEEDF00D,
			Chunks: []ChunkRef{
				{Hash: [16]byte{1, 2, 3}, Len: 1024},
				{Hash: [16]byte{4, 5, 6}, Len: 512},
				{Hash: [16]byte{1, 2, 3}, Len: 1024}, // repeated chunk
			},
			Inline: []InlineChunk{{Index: 1, Data: []byte("fresh bytes")}},
		},
		&ChunkReq{File: ref, Version: 7, Hashes: [][16]byte{{4, 5, 6}, {7, 8, 9}}},
		&ChunkData{File: ref, Version: 7, Chunks: []ChunkBlob{
			{Hash: [16]byte{4, 5, 6}, Data: []byte("chunk body")},
			{Hash: [16]byte{7, 8, 9}, Data: nil},
		}},
		&TreeHead{Root: "arthur:/u/comer/project", Hash: [16]byte{0xAA, 1, 2}, Count: 10000},
		&TreeHead{Root: "arthur:/u/comer/empty", Hash: [16]byte{0xBB}},
		&TreeDiff{Root: "arthur:/u/comer/project",
			Want: []string{"", "src/pkg01"}, Dirs: []TreeDir{}},
		&TreeDiff{Root: "arthur:/u/comer/project", Want: []string{}, Dirs: []TreeDir{
			{Path: "", Entries: []TreeEntry{
				{Name: "src", Hash: [16]byte{1}, Dir: true},
				{Name: "run.job", Hash: [16]byte{2}},
			}},
			{Path: "src/pkg01", Entries: []TreeEntry{}},
		}},
		&TreeDiff{Root: "arthur:/u/comer/project",
			Want: []string{}, Dirs: []TreeDir{}, InSync: true},
		&BatchNotify{
			Notifies: []NotifyEntry{
				{File: ref, Version: 7, Size: 102400, Sum: 0xDEADBEEF},
				{File: FileRef{Domain: "nfs.purdue", FileID: "arthur:/u/comer/mesh.dat"}, Version: 1, Size: 12, Sum: 7},
			},
			Removed: []FileRef{{Domain: "nfs.purdue", FileID: "arthur:/u/comer/old.f"}},
		},
		&BatchNotify{Notifies: []NotifyEntry{}, Removed: []FileRef{}},
		&PeerHello{Instance: "shadow-b"},
		&PeerNotify{File: ref, HaveVersion: 6, WantVersion: 7},
		&PeerDelta{File: ref, BaseVersion: 6, Version: 7, Encoded: []byte{1, 2, 3}, Compressed: true},
		&PeerDelta{File: ref}, // negative: "can't serve, pull from the client"
		&PeerChunk{File: ref, Version: 7, Sum: 0xFEEDF00D, Chunks: []ChunkRef{
			{Hash: [16]byte{1, 2, 3}, Len: 1024},
			{Hash: [16]byte{4, 5, 6}, Len: 512},
		}},
		&Bye{},
	}
}

func TestMarshalRoundTripEveryMessage(t *testing.T) {
	for _, m := range sampleMessages() {
		t.Run(m.Kind().String(), func(t *testing.T) {
			buf := Marshal(m)
			got, err := Unmarshal(buf)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, m)
			}
		})
	}
}

func TestMarshalTracedRoundTripEveryMessage(t *testing.T) {
	tc := TraceContext{TraceID: 0xABCDE12345, SpanID: 77}
	for _, m := range sampleMessages() {
		t.Run(m.Kind().String(), func(t *testing.T) {
			buf := MarshalTraced(m, tc)
			got, gotTC, err := UnmarshalTraced(buf)
			if err != nil {
				t.Fatalf("UnmarshalTraced: %v", err)
			}
			if gotTC != tc {
				t.Fatalf("trace context = %+v, want %+v", gotTC, tc)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, m)
			}
			// Plain Unmarshal must accept the traced frame too (it just
			// drops the header) — old decode paths keep working.
			if got2, err := Unmarshal(buf); err != nil || !reflect.DeepEqual(got2, m) {
				t.Fatalf("Unmarshal of traced frame: %#v, %v", got2, err)
			}
		})
	}
}

// TestUntracedFramesUnchanged pins backward compatibility: a zero context
// must produce the exact version-1 encoding, and version-1 frames decode
// with a zero context.
func TestUntracedFramesUnchanged(t *testing.T) {
	for _, m := range sampleMessages() {
		plain := Marshal(m)
		traced := MarshalTraced(m, TraceContext{})
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("%s: zero-context frame differs from untraced frame", m.Kind())
		}
		_, tc, err := UnmarshalTraced(plain)
		if err != nil {
			t.Fatalf("%s: %v", m.Kind(), err)
		}
		if tc.Valid() {
			t.Fatalf("%s: untraced frame decoded with context %+v", m.Kind(), tc)
		}
	}
}

// TestTraceContextPropertyRoundTrip is the property test for the
// trace-context header codec: any (message, context) pair survives
// encode/decode, and the flag bit appears exactly when the context is valid.
func TestTraceContextPropertyRoundTrip(t *testing.T) {
	samples := sampleMessages()
	f := func(pick uint8, traceID, spanID uint64) bool {
		m := samples[int(pick)%len(samples)]
		tc := TraceContext{TraceID: traceID, SpanID: spanID}
		buf := MarshalTraced(m, tc)
		if (buf[0]&traceFlag != 0) != tc.Valid() {
			return false
		}
		got, gotTC, err := UnmarshalTraced(buf)
		if err != nil {
			return false
		}
		if tc.Valid() {
			if gotTC != tc {
				return false
			}
		} else if gotTC.Valid() {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestTracedRejectsZeroTraceID(t *testing.T) {
	// A flagged frame whose header names trace 0 is malformed — an encoder
	// never produces it, so the decoder refuses rather than guessing.
	buf := []byte{byte(KindBye) | traceFlag, 0x00, 0x05}
	if _, _, err := UnmarshalTraced(buf); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestUnmarshalRejectsTruncations(t *testing.T) {
	for _, m := range sampleMessages() {
		buf := Marshal(m)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := Unmarshal(buf[:cut]); err == nil {
				// Some prefixes happen to decode as a shorter
				// valid message of the same kind only if all
				// fields were consumed; trailing-byte checks
				// make that impossible, so any success is a
				// bug.
				t.Fatalf("%s: %d/%d byte prefix decoded", m.Kind(), cut, len(buf))
			}
		}
		tc := TraceContext{TraceID: 1 << 40, SpanID: 9}
		traced := MarshalTraced(m, tc)
		for cut := 0; cut < len(traced); cut++ {
			if _, _, err := UnmarshalTraced(traced[:cut]); err == nil {
				t.Fatalf("%s: %d/%d byte traced prefix decoded", m.Kind(), cut, len(traced))
			}
		}
	}
}

func TestUnmarshalRejectsTrailing(t *testing.T) {
	buf := append(Marshal(&Bye{}), 0xFF)
	if _, err := Unmarshal(buf); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestUnmarshalRejectsUnknownKind(t *testing.T) {
	if _, err := Unmarshal([]byte{0xEE}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
	if _, err := Unmarshal(nil); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}

func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalFuzzEveryKindPrefix(t *testing.T) {
	// Force the body decoder of each kind to run against random bodies.
	f := func(kindSeed uint8, body []byte) bool {
		kind := byte(kindSeed%uint8(KindPeerChunk) + 1)
		_, _ = Unmarshal(append([]byte{kind}, body...))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindNotify.String() != "NOTIFY" {
		t.Errorf("KindNotify = %q", KindNotify.String())
	}
	if Kind(200).String() != "KIND(200)" {
		t.Errorf("unknown kind = %q", Kind(200).String())
	}
}

func TestJobStateHelpers(t *testing.T) {
	tests := []struct {
		state    JobState
		name     string
		terminal bool
	}{
		{JobQueued, "queued", false},
		{JobFetching, "fetching", false},
		{JobRunning, "running", false},
		{JobDone, "done", true},
		{JobFailed, "failed", true},
		{JobState(99), "state(99)", false},
	}
	for _, tt := range tests {
		if got := tt.state.String(); got != tt.name {
			t.Errorf("%d.String() = %q, want %q", tt.state, got, tt.name)
		}
		if got := tt.state.Terminal(); got != tt.terminal {
			t.Errorf("%v.Terminal() = %v, want %v", tt.state, got, tt.terminal)
		}
	}
}

func TestFileRefString(t *testing.T) {
	ref := FileRef{Domain: "d", FileID: "h:/p"}
	if ref.String() != "d//h:/p" {
		t.Errorf("String = %q", ref.String())
	}
}

func TestErrorMsgIsError(t *testing.T) {
	var err error = &ErrorMsg{Code: CodeOverloaded, Text: "busy"}
	if err.Error() != "shadow server error 6: busy" {
		t.Errorf("Error() = %q", err.Error())
	}
}

func TestStreamConnRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewStreamConn(a), NewStreamConn(b)
	defer ca.Close()
	defer cb.Close()

	done := make(chan error, 1)
	go func() {
		msg, err := Recv(cb)
		if err != nil {
			done <- err
			return
		}
		done <- Send(cb, msg)
	}()
	want := &Notify{File: FileRef{Domain: "d", FileID: "f"}, Version: 3, Size: 10, Sum: 7}
	if err := Send(ca, want); err != nil {
		t.Fatal(err)
	}
	got, err := Recv(ca)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("echo = %#v, want %#v", got, want)
	}
}

func TestStreamConnRejectsOversizedSend(t *testing.T) {
	a, _ := net.Pipe()
	c := NewStreamConn(a)
	defer c.Close()
	if err := c.Send(make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestStreamConnRejectsOversizedRecv(t *testing.T) {
	a, b := net.Pipe()
	c := NewStreamConn(b)
	defer c.Close()
	go func() {
		// Header advertising a giant frame.
		_, _ = a.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	}()
	if _, err := c.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestStreamConnEmptyFrame(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewStreamConn(a), NewStreamConn(b)
	go func() { _ = ca.Send(nil) }()
	got, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("Recv = %v, want empty", got)
	}
}

// TestStreamConnLetsGoOfOutlierScratch: the one big frame among small ones
// (the full copy that primes a file, then deltas) must not pin a frame-sized
// scratch on either end past the next ordinary frame; a run of big frames
// keeps it.
func TestStreamConnLetsGoOfOutlierScratch(t *testing.T) {
	c1, c2 := net.Pipe()
	tx, rx := NewStreamConn(c1), NewStreamConn(c2)
	defer tx.Close()
	defer rx.Close()
	small, big := make([]byte, 300), make([]byte, 256<<10)
	exchange := func(payload []byte) {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- tx.Send(payload) }()
		got, err := rx.Recv()
		if err != nil || len(got) != len(payload) {
			t.Fatalf("recv %d bytes, %v; want %d", len(got), err, len(payload))
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		exchange(small)
	}
	exchange(big)
	if cap(tx.sendBuf) != 0 {
		t.Errorf("sender kept a %d-byte scratch after one outlier frame", cap(tx.sendBuf))
	}
	exchange(small)
	if cap(rx.recvBuf) > bigScratch {
		t.Errorf("receiver kept a %d-byte scratch past the first ordinary frame", cap(rx.recvBuf))
	}
	exchange(big)
	exchange(big)
	exchange(big)
	if cap(tx.sendBuf) < len(big) || cap(rx.recvBuf) < len(big) {
		t.Errorf("steady big frames: scratch is %d / %d bytes, want frame-sized on both ends", cap(tx.sendBuf), cap(rx.recvBuf))
	}
	exchange(small)
	if cap(rx.recvBuf) < len(big) {
		t.Error("one small frame among big ones dropped the steady-state scratch")
	}
}
