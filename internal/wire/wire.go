// Package wire defines the shadow protocol: the messages exchanged between
// the client at a user's workstation and the shadow server at a
// supercomputer site, and their binary encoding.
//
// The protocol follows the paper's demand-driven design (§5.2, §6.4):
// notifications and submit requests are short messages that carry no bulk
// data; the server decides when to PULL file contents, and bulk transfer
// happens as deltas against cached versions whenever possible, falling back
// to full contents when the cache has no usable base. Job output is pushed
// to the client on completion (or routed to a third host), optionally as a
// delta against previously delivered output ("reverse shadow processing",
// §8.3).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ProtocolVersion identifies the shadow protocol. There is one: both ends
// of a session speak exactly this version, and a HELLO that names any other
// is refused with an ERROR (no old build is deployed anywhere, so there is
// nothing to negotiate down to). The one per-frame choice left is the
// optional trace-context header (see TraceContext), which any frame may
// carry or omit.
const ProtocolVersion = 5

// MaxFrame bounds a single protocol frame; larger transfers are rejected
// rather than buffered without limit.
const MaxFrame = 64 << 20

// Conn is the message transport the protocol runs over. netsim.Conn
// implements it for simulated links; StreamConn adapts any reliable byte
// stream (for example a *net.TCPConn) for real deployments.
type Conn interface {
	// Send transmits one message payload.
	Send(payload []byte) error
	// Recv blocks for the next message payload.
	Recv() ([]byte, error)
	// Close releases the transport.
	Close() error
}

// Kind discriminates protocol messages.
type Kind uint8

// Protocol message kinds.
const (
	KindHello Kind = iota + 1
	KindHelloOK
	KindNotify
	KindPull
	KindFileDelta
	KindFileFull
	KindFileAck
	KindSubmit
	KindSubmitOK
	KindStatusReq
	KindStatusReply
	KindOutput
	KindOutputAck
	KindOutputFullReq
	KindError
	KindBye
	KindFileManifest
	KindChunkReq
	KindChunkData
	KindTreeHead
	KindTreeDiff
	KindBatchNotify
	KindPeerHello
	KindPeerNotify
	KindPeerDelta
	KindPeerChunk
)

var kindNames = map[Kind]string{
	KindHello:         "HELLO",
	KindHelloOK:       "HELLO_OK",
	KindNotify:        "NOTIFY",
	KindPull:          "PULL",
	KindFileDelta:     "FILE_DELTA",
	KindFileFull:      "FILE_FULL",
	KindFileAck:       "FILE_ACK",
	KindSubmit:        "SUBMIT",
	KindSubmitOK:      "SUBMIT_OK",
	KindStatusReq:     "STATUS_REQ",
	KindStatusReply:   "STATUS_REPLY",
	KindOutput:        "OUTPUT",
	KindOutputAck:     "OUTPUT_ACK",
	KindOutputFullReq: "OUTPUT_FULL_REQ",
	KindError:         "ERROR",
	KindBye:           "BYE",
	KindFileManifest:  "FILE_MANIFEST",
	KindChunkReq:      "CHUNK_REQ",
	KindChunkData:     "CHUNK_DATA",
	KindTreeHead:      "TREE_HEAD",
	KindTreeDiff:      "TREE_DIFF",
	KindBatchNotify:   "BATCH_NOTIFY",
	KindPeerHello:     "PEER_HELLO",
	KindPeerNotify:    "PEER_NOTIFY",
	KindPeerDelta:     "PEER_DELTA",
	KindPeerChunk:     "PEER_CHUNK",
}

// String returns the protocol name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("KIND(%d)", uint8(k))
}

// Errors reported by the codec.
var (
	// ErrBadMessage reports an undecodable message.
	ErrBadMessage = errors.New("wire: bad message")
	// ErrFrameTooLarge reports a frame exceeding MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame too large")
)

// FileRef is the globally unique name of a user file: the (domain id, file
// id) pair of the paper's naming design (§5.3). Domain identifies a naming
// domain (for example one NFS universe); FileID is unique within it (for
// example "host:/abs/path" after alias and mount resolution).
type FileRef struct {
	Domain string
	FileID string
}

// String renders the reference as domain//fileid.
func (f FileRef) String() string { return f.Domain + "//" + f.FileID }

// JobState is the lifecycle state of a submitted job.
type JobState uint8

// Job lifecycle states.
const (
	// JobQueued means the job awaits scheduling (the server may still be
	// retrieving its files).
	JobQueued JobState = iota + 1
	// JobFetching means the server is pulling input files it needs.
	JobFetching
	// JobRunning means the job is executing at the supercomputer.
	JobRunning
	// JobDone means the job finished and output is available/delivered.
	JobDone
	// JobFailed means the job could not be run or exited with an error.
	JobFailed
)

var jobStateNames = map[JobState]string{
	JobQueued:   "queued",
	JobFetching: "fetching",
	JobRunning:  "running",
	JobDone:     "done",
	JobFailed:   "failed",
}

// String returns the lower-case state name.
func (s JobState) String() string {
	if n, ok := jobStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == JobDone || s == JobFailed }

// traceFlag is set on the frame's kind byte when a trace-context header
// follows it. Message kinds are small constants, so the high bit is never
// part of a legitimate kind value and a plain frame can never be misread as
// a traced one.
const traceFlag = 0x80

// TraceContext is the causal metadata a frame may carry: the cycle's trace
// id and the sending side's span id, in the style of Dapper/X-Trace
// propagation. The zero value means "untraced"; an untraced frame is encoded
// without the header — kind byte, then body.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// Message is one protocol message.
type Message interface {
	// Kind returns the message discriminator.
	Kind() Kind
	// encode appends the message body (not the kind byte).
	encode(e *encoder)
	// decode parses the message body.
	decode(d *decoder)
}

// encPool recycles encoder structs: m.encode(e) is an interface call, so a
// stack-allocated encoder escapes and would otherwise cost one heap
// allocation per marshalled message.
var encPool = sync.Pool{New: func() any { return new(encoder) }}

// decPool recycles decoder structs for the same reason (m.decode(d)).
var decPool = sync.Pool{New: func() any { return new(decoder) }}

// Marshal serializes a message, kind byte first (untraced).
func Marshal(m Message) []byte {
	return MarshalTraced(m, TraceContext{})
}

// MarshalTraced serializes a message with an optional trace-context header.
// An invalid (zero) context produces exactly the version-1 encoding: the
// flag bit is only set when there is a header to read, so tracing-off
// traffic is byte-identical to the untraced protocol.
func MarshalTraced(m Message, tc TraceContext) []byte {
	return AppendMarshal(make([]byte, 0, 64), m, tc)
}

// AppendMarshal appends the frame for m (kind byte first, optional trace
// header, body) to dst and returns the extended slice. It is the
// allocation-free form of MarshalTraced: callers that own a reusable scratch
// buffer pass dst = scratch[:0] and pay nothing on the steady state. The
// encoder struct itself comes from a pool.
func AppendMarshal(dst []byte, m Message, tc TraceContext) []byte {
	e := encPool.Get().(*encoder)
	e.buf = dst
	if tc.Valid() {
		e.byte(byte(m.Kind()) | traceFlag)
		e.uvarint(tc.TraceID)
		e.uvarint(tc.SpanID)
	} else {
		e.byte(byte(m.Kind()))
	}
	m.encode(e)
	out := e.buf
	e.buf = nil
	encPool.Put(e)
	return out
}

// Unmarshal parses a message produced by Marshal or MarshalTraced,
// discarding any trace context.
func Unmarshal(buf []byte) (Message, error) {
	m, _, err := UnmarshalTraced(buf)
	return m, err
}

// UnmarshalTraced parses a message and its trace-context header, when
// present. Frames without the flag (every version-1 frame) decode with a
// zero context.
//
// The returned message owns every byte it carries: the decoder copies
// strings and byte fields out of buf, so the caller may recycle buf the
// moment UnmarshalTraced returns (the zero-copy receive path relies on
// this).
func UnmarshalTraced(buf []byte) (Message, TraceContext, error) {
	d := decPool.Get().(*decoder)
	m, tc, err := unmarshalWith(d, buf, nil)
	d.buf, d.err = nil, nil
	decPool.Put(d)
	return m, tc, err
}

// UnmarshalInto parses a frame whose kind is known in advance into a
// caller-supplied message, avoiding the per-frame message allocation. The
// frame's kind byte must match into.Kind() or ErrBadMessage is returned.
// into should be a zero value (or a value whose every field the caller is
// happy to have overwritten); trailing optional fields keep their previous
// value when the frame omits them, exactly as they would stay zero on a
// fresh struct.
func UnmarshalInto(into Message, buf []byte) (TraceContext, error) {
	d := decPool.Get().(*decoder)
	_, tc, err := unmarshalWith(d, buf, into)
	d.buf, d.err = nil, nil
	decPool.Put(d)
	return tc, err
}

func unmarshalWith(d *decoder, buf []byte, into Message) (Message, TraceContext, error) {
	var tc TraceContext
	if len(buf) == 0 {
		return nil, tc, fmt.Errorf("%w: empty", ErrBadMessage)
	}
	d.buf, d.err = buf[1:], nil
	if buf[0]&traceFlag != 0 {
		tc.TraceID = d.uvarint()
		tc.SpanID = d.uvarint()
		if d.err != nil {
			return nil, TraceContext{}, fmt.Errorf("%w: bad trace header: %v", ErrBadMessage, d.err)
		}
		if !tc.Valid() {
			return nil, TraceContext{}, fmt.Errorf("%w: trace flag with zero trace id", ErrBadMessage)
		}
	}
	kind := Kind(buf[0] &^ traceFlag)
	var m Message
	if into != nil {
		if kind != into.Kind() {
			return nil, TraceContext{}, fmt.Errorf("%w: kind %d, want %s", ErrBadMessage, kind, into.Kind())
		}
		m = into
	} else {
		m = newMessage(kind)
		if m == nil {
			return nil, TraceContext{}, fmt.Errorf("%w: unknown kind %d", ErrBadMessage, kind)
		}
	}
	m.decode(d)
	if d.err != nil {
		return nil, TraceContext{}, fmt.Errorf("%w: %s: %v", ErrBadMessage, kind, d.err)
	}
	if len(d.buf) != 0 {
		return nil, TraceContext{}, fmt.Errorf("%w: %s: %d trailing bytes", ErrBadMessage, kind, len(d.buf))
	}
	return m, tc, nil
}

func newMessage(k Kind) Message {
	switch k {
	case KindHello:
		return &Hello{}
	case KindHelloOK:
		return &HelloOK{}
	case KindNotify:
		return &Notify{}
	case KindPull:
		return &Pull{}
	case KindFileDelta:
		return &FileDelta{}
	case KindFileFull:
		return &FileFull{}
	case KindFileAck:
		return &FileAck{}
	case KindSubmit:
		return &Submit{}
	case KindSubmitOK:
		return &SubmitOK{}
	case KindStatusReq:
		return &StatusReq{}
	case KindStatusReply:
		return &StatusReply{}
	case KindOutput:
		return &Output{}
	case KindOutputAck:
		return &OutputAck{}
	case KindOutputFullReq:
		return &OutputFullReq{}
	case KindError:
		return &ErrorMsg{}
	case KindBye:
		return &Bye{}
	case KindFileManifest:
		return &FileManifest{}
	case KindChunkReq:
		return &ChunkReq{}
	case KindChunkData:
		return &ChunkData{}
	case KindTreeHead:
		return &TreeHead{}
	case KindTreeDiff:
		return &TreeDiff{}
	case KindBatchNotify:
		return &BatchNotify{}
	case KindPeerHello:
		return &PeerHello{}
	case KindPeerNotify:
		return &PeerNotify{}
	case KindPeerDelta:
		return &PeerDelta{}
	case KindPeerChunk:
		return &PeerChunk{}
	default:
		return nil
	}
}

// Send marshals and transmits a message (untraced).
func Send(c Conn, m Message) error {
	return c.Send(Marshal(m))
}

// SendTraced marshals and transmits a message carrying tc. A zero context
// sends the plain version-1 frame.
func SendTraced(c Conn, m Message, tc TraceContext) error {
	return c.Send(MarshalTraced(m, tc))
}

// NonRetainingSender marks transports whose Send finishes with the payload
// before returning — the bytes are copied to the wire (or into an internal
// write buffer) and the caller may reuse the slice immediately. StreamConn
// qualifies; netsim connections do NOT (a simulated link enqueues the very
// slice it was handed and delivers it later), which is why buffer-reusing
// senders must probe for this capability instead of assuming it.
type NonRetainingSender interface {
	// SendDoesNotRetain is a marker; it never needs calling.
	SendDoesNotRetain()
}

// sendPool recycles marshal scratch for SendBatch. Buffers, not arrays, so
// grown scratch is kept across messages.
var sendPool = sync.Pool{New: func() any { return new([]byte) }}

// SendBatch marshals msgs, each stamped with tc, and transmits them in
// order. On a StreamConn the frames are built, headers and all, in pooled
// scratch and leave in one Write — one syscall on a socket, however many
// frames, and no allocation in the steady state — and nothing is held back
// once the call returns (a buffered StreamConn's buffer aside, which its
// owner flushes). A batch with a frame above MaxFrame sends nothing. Every
// other transport gets one SendTraced per frame, each with a fresh buffer
// it may keep (a simulated link delivers the very slice later), so
// simulated links see exactly the frames, and the timing, of separate
// sends; there, frames ahead of a failed one may have been delivered.
func SendBatch(c Conn, tc TraceContext, msgs ...Message) error {
	s, ok := c.(*StreamConn)
	if !ok {
		for _, m := range msgs {
			if err := SendTraced(c, m, tc); err != nil {
				return err
			}
		}
		return nil
	}
	bp := sendPool.Get().(*[]byte)
	buf := (*bp)[:0]
	var err error
	for _, m := range msgs {
		at := len(buf)
		buf = AppendMarshal(append(buf, 0, 0, 0, 0), m, tc)
		n := len(buf) - at - 4
		if n > MaxFrame {
			err = ErrFrameTooLarge
			break
		}
		binary.BigEndian.PutUint32(buf[at:], uint32(n))
	}
	if err == nil {
		err = s.writeFrames(buf)
	}
	if cap(buf) <= bigScratch {
		// A process-wide pool is no place for the scratch of a whole-file
		// frame: it would sit there, file-sized, until the collector's
		// next-but-one pass. (The server's session writers draw the same
		// line for theirs.)
		*bp = buf
	}
	sendPool.Put(bp)
	return err
}

// ReusableReceiver is implemented by transports that can hand out a frame in
// a connection-owned buffer which is recycled by the next receive call.
// Ownership rule: the returned slice is valid only until the next
// RecvReuse/Recv on the same connection; callers must fully consume (or
// copy) it before receiving again. UnmarshalTraced satisfies this by
// copying every field out of the frame.
type ReusableReceiver interface {
	// RecvReuse blocks for the next message payload, returned in a buffer
	// owned by the connection.
	RecvReuse() ([]byte, error)
}

// ScheduledSender is implemented by virtual-time transports whose
// transmissions can be scheduled to begin at an explicit instant. An
// asynchronous writer stamps each message with Now() when it is queued and
// transmits with SendScheduled, so pipelining does not distort virtual
// timing: the local clock may advance (the receive side runs concurrently)
// between enqueue and the actual write.
type ScheduledSender interface {
	Now() time.Duration
	SendScheduled(payload []byte, start time.Duration) error
}

// Recv receives and unmarshals the next message, discarding any trace
// context.
func Recv(c Conn) (Message, error) {
	m, _, err := RecvTraced(c)
	return m, err
}

// RecvTraced receives the next message together with its trace context
// (zero when the peer sent an untraced frame).
func RecvTraced(c Conn) (Message, TraceContext, error) {
	buf, err := c.Recv()
	if err != nil {
		return nil, TraceContext{}, err
	}
	if len(buf) > MaxFrame {
		return nil, TraceContext{}, ErrFrameTooLarge
	}
	return UnmarshalTraced(buf)
}

// RecvTracedReuse is RecvTraced over the zero-copy receive path: on
// transports implementing ReusableReceiver, the raw frame lands in a
// connection-owned buffer that the next receive recycles. Because
// UnmarshalTraced copies every field out of the frame, the returned Message
// is unconditionally safe to retain; only the raw frame bytes are recycled.
// Intended for exclusive receive loops (one goroutine draining a
// connection); other transports fall back to the allocating Recv.
func RecvTracedReuse(c Conn) (Message, TraceContext, error) {
	rr, ok := c.(ReusableReceiver)
	if !ok {
		return RecvTraced(c)
	}
	buf, err := rr.RecvReuse()
	if err != nil {
		return nil, TraceContext{}, err
	}
	if len(buf) > MaxFrame {
		return nil, TraceContext{}, ErrFrameTooLarge
	}
	return UnmarshalTraced(buf)
}
