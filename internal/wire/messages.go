package wire

import "fmt"

// Hello opens a session: the client identifies its user and naming domain.
type Hello struct {
	// Protocol is the client's protocol version.
	Protocol uint32
	// User is the submitting user's name.
	User string
	// Domain is the client's naming domain id (§5.3).
	Domain string
	// ClientHost is the host the client runs on, used for output routing.
	ClientHost string
}

// Kind implements Message.
func (*Hello) Kind() Kind { return KindHello }

func (m *Hello) encode(e *encoder) {
	e.uvarint(uint64(m.Protocol))
	e.string(m.User)
	e.string(m.Domain)
	e.string(m.ClientHost)
}

func (m *Hello) decode(d *decoder) {
	m.Protocol = uint32(d.uvarint())
	m.User = d.string()
	m.Domain = d.string()
	m.ClientHost = d.string()
}

// HelloOK accepts a session.
type HelloOK struct {
	// Session identifies the session at the server.
	Session uint64
	// ServerName is the server's advertised host name.
	ServerName string
	// Protocol is the server's protocol version — the one the client's HELLO
	// named, or the session would have been refused.
	Protocol uint32
}

// Kind implements Message.
func (*HelloOK) Kind() Kind { return KindHelloOK }

func (m *HelloOK) encode(e *encoder) {
	e.uvarint(m.Session)
	e.string(m.ServerName)
	e.uvarint(uint64(m.Protocol))
}

func (m *HelloOK) decode(d *decoder) {
	m.Session = d.uvarint()
	m.ServerName = d.string()
	m.Protocol = uint32(d.uvarint())
}

// Notify tells the server a new version of a file exists (§6.4). It carries
// no content: the server pulls when it chooses (demand-driven flow control).
type Notify struct {
	File    FileRef
	Version uint64
	// Size and Sum describe the new version so the server can plan.
	Size int64
	Sum  uint32
}

// Kind implements Message.
func (*Notify) Kind() Kind { return KindNotify }

func (m *Notify) encode(e *encoder) {
	e.fileRef(m.File)
	e.uvarint(m.Version)
	e.uvarint(uint64(m.Size))
	e.uint32(m.Sum)
}

func (m *Notify) decode(d *decoder) {
	m.File = d.fileRef()
	m.Version = d.uvarint()
	m.Size = int64(d.uvarint())
	m.Sum = d.uint32()
}

// Pull asks the client for file content. HaveVersion is the newest version
// the server's cache holds (0 if none); the client answers with a FileDelta
// from that base when it still retains it, or a FileFull otherwise.
type Pull struct {
	File        FileRef
	HaveVersion uint64
	WantVersion uint64
}

// Kind implements Message.
func (*Pull) Kind() Kind { return KindPull }

func (m *Pull) encode(e *encoder) {
	e.fileRef(m.File)
	e.uvarint(m.HaveVersion)
	e.uvarint(m.WantVersion)
}

func (m *Pull) decode(d *decoder) {
	m.File = d.fileRef()
	m.HaveVersion = d.uvarint()
	m.WantVersion = d.uvarint()
}

// FileDelta carries the changes from BaseVersion to Version of a file as an
// encoded, self-verifying diff (see internal/diff), optionally compressed.
type FileDelta struct {
	File        FileRef
	BaseVersion uint64
	Version     uint64
	Encoded     []byte
	Compressed  bool
}

// Kind implements Message.
func (*FileDelta) Kind() Kind { return KindFileDelta }

func (m *FileDelta) encode(e *encoder) {
	e.fileRef(m.File)
	e.uvarint(m.BaseVersion)
	e.uvarint(m.Version)
	e.bytes(m.Encoded)
	e.bool(m.Compressed)
}

func (m *FileDelta) decode(d *decoder) {
	m.File = d.fileRef()
	m.BaseVersion = d.uvarint()
	m.Version = d.uvarint()
	m.Encoded = d.bytes()
	m.Compressed = d.bool()
}

// FileFull carries a complete version of a file — the fallback when no
// common base exists (first submission, or the cache evicted it).
type FileFull struct {
	File       FileRef
	Version    uint64
	Content    []byte
	Sum        uint32
	Compressed bool
}

// Kind implements Message.
func (*FileFull) Kind() Kind { return KindFileFull }

func (m *FileFull) encode(e *encoder) {
	e.fileRef(m.File)
	e.uvarint(m.Version)
	e.bytes(m.Content)
	e.uint32(m.Sum)
	e.bool(m.Compressed)
}

func (m *FileFull) decode(d *decoder) {
	m.File = d.fileRef()
	m.Version = d.uvarint()
	m.Content = d.bytes()
	m.Sum = d.uint32()
	m.Compressed = d.bool()
}

// FileAck confirms the server has stored the given version; the client may
// prune older retained versions (§6.3.2).
type FileAck struct {
	File    FileRef
	Version uint64
}

// Kind implements Message.
func (*FileAck) Kind() Kind { return KindFileAck }

func (m *FileAck) encode(e *encoder) {
	e.fileRef(m.File)
	e.uvarint(m.Version)
}

func (m *FileAck) decode(d *decoder) {
	m.File = d.fileRef()
	m.Version = d.uvarint()
}

// JobInput names one data file a job needs, pinned to a version.
type JobInput struct {
	File    FileRef
	Version uint64
	// As is the name the job's commands use to refer to the file.
	As string
}

// Submit requests execution of a job (§6.2). The job command file travels
// inline (it is small); data files are referenced by (file, version) and
// pulled by the server on demand.
type Submit struct {
	// Script is the job command file: one command per line.
	Script []byte
	// Inputs are the data files the commands read.
	Inputs []JobInput
	// OutputFile and ErrorFile optionally name where the client stores
	// results (paper: "optional arguments allow the user to specify the
	// names of files into which the system stores output and error
	// messages").
	OutputFile string
	ErrorFile  string
	// RouteHost optionally names a different host to deliver output to
	// (§8.3 "routing the output to different hosts").
	RouteHost string
	// WantOutputDelta asks for reverse shadow processing: if the server
	// cached the previous output of this same script, send a delta.
	WantOutputDelta bool
	// ClientTag, when nonzero, makes the submission idempotent: a client
	// that retries a SUBMIT over a new connection (its SUBMIT_OK may have
	// been lost) sends the same tag, and the server answers with the
	// already-created job instead of running it twice. Zero means
	// untagged; untagged submissions encode exactly as before this field
	// existed (it is a trailing optional), so clients that never retry
	// produce byte-identical wire traffic.
	ClientTag uint64
}

// Kind implements Message.
func (*Submit) Kind() Kind { return KindSubmit }

func (m *Submit) encode(e *encoder) {
	e.bytes(m.Script)
	e.uvarint(uint64(len(m.Inputs)))
	for _, in := range m.Inputs {
		e.fileRef(in.File)
		e.uvarint(in.Version)
		e.string(in.As)
	}
	e.string(m.OutputFile)
	e.string(m.ErrorFile)
	e.string(m.RouteHost)
	e.bool(m.WantOutputDelta)
	if m.ClientTag != 0 {
		e.uvarint(m.ClientTag)
	}
}

func (m *Submit) decode(d *decoder) {
	m.Script = d.bytes()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail("input count exceeds frame")
		return
	}
	m.Inputs = make([]JobInput, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var in JobInput
		in.File = d.fileRef()
		in.Version = d.uvarint()
		in.As = d.string()
		m.Inputs = append(m.Inputs, in)
	}
	m.OutputFile = d.string()
	m.ErrorFile = d.string()
	m.RouteHost = d.string()
	m.WantOutputDelta = d.bool()
	if d.err == nil && len(d.buf) > 0 {
		m.ClientTag = d.uvarint()
	}
}

// SubmitOK acknowledges a submission with the job identifier used by status
// queries.
type SubmitOK struct {
	Job uint64
}

// Kind implements Message.
func (*SubmitOK) Kind() Kind { return KindSubmitOK }

func (m *SubmitOK) encode(e *encoder) { e.uvarint(m.Job) }
func (m *SubmitOK) decode(d *decoder) { m.Job = d.uvarint() }

// StatusReq queries one job, or all of the session's jobs when All is set.
type StatusReq struct {
	Job uint64
	All bool
}

// Kind implements Message.
func (*StatusReq) Kind() Kind { return KindStatusReq }

func (m *StatusReq) encode(e *encoder) {
	e.uvarint(m.Job)
	e.bool(m.All)
}

func (m *StatusReq) decode(d *decoder) {
	m.Job = d.uvarint()
	m.All = d.bool()
}

// JobStatus reports one job's state.
type JobStatus struct {
	Job    uint64
	State  JobState
	Detail string
}

// StatusReply answers a StatusReq.
type StatusReply struct {
	Jobs []JobStatus
}

// Kind implements Message.
func (*StatusReply) Kind() Kind { return KindStatusReply }

func (m *StatusReply) encode(e *encoder) {
	e.uvarint(uint64(len(m.Jobs)))
	for _, j := range m.Jobs {
		e.uvarint(j.Job)
		e.byte(byte(j.State))
		e.string(j.Detail)
	}
}

func (m *StatusReply) decode(d *decoder) {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail("job count exceeds frame")
		return
	}
	m.Jobs = make([]JobStatus, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var j JobStatus
		j.Job = d.uvarint()
		j.State = JobState(d.byte())
		j.Detail = d.string()
		m.Jobs = append(m.Jobs, j)
	}
}

// OutputMode says how Output carries the job's stdout.
type OutputMode uint8

// Output transfer modes.
const (
	// OutputFull carries the complete stdout bytes.
	OutputFull OutputMode = iota + 1
	// OutputDelta carries an encoded diff against the previous output
	// delivered for the same script (reverse shadow processing).
	OutputDelta
)

// Output delivers a finished job's results. Stderr always travels in full
// (it is small and rarely repeats); stdout may travel as a delta.
type Output struct {
	Job      uint64
	State    JobState
	ExitCode int32
	Mode     OutputMode
	// Stdout holds full bytes (OutputFull) or an encoded diff
	// (OutputDelta) whose base is the previous output the client holds.
	Stdout     []byte
	Stderr     []byte
	Compressed bool
}

// Kind implements Message.
func (*Output) Kind() Kind { return KindOutput }

func (m *Output) encode(e *encoder) {
	e.uvarint(m.Job)
	e.byte(byte(m.State))
	e.uint32(uint32(m.ExitCode))
	e.byte(byte(m.Mode))
	e.bytes(m.Stdout)
	e.bytes(m.Stderr)
	e.bool(m.Compressed)
}

func (m *Output) decode(d *decoder) {
	m.Job = d.uvarint()
	m.State = JobState(d.byte())
	m.ExitCode = int32(d.uint32())
	m.Mode = OutputMode(d.byte())
	m.Stdout = d.bytes()
	m.Stderr = d.bytes()
	m.Compressed = d.bool()
}

// OutputAck confirms delivery so the server can release or recycle its
// cached copy of the output.
type OutputAck struct {
	Job uint64
}

// Kind implements Message.
func (*OutputAck) Kind() Kind { return KindOutputAck }

func (m *OutputAck) encode(e *encoder) { e.uvarint(m.Job) }
func (m *OutputAck) decode(d *decoder) { m.Job = d.uvarint() }

// OutputFullReq asks the server to resend a job's output in full, used when
// an output delta's base is gone on the client.
type OutputFullReq struct {
	Job uint64
}

// Kind implements Message.
func (*OutputFullReq) Kind() Kind { return KindOutputFullReq }

func (m *OutputFullReq) encode(e *encoder) { e.uvarint(m.Job) }
func (m *OutputFullReq) decode(d *decoder) { m.Job = d.uvarint() }

// ErrorMsg reports a protocol-level failure for a request.
type ErrorMsg struct {
	Code uint32
	Text string
}

// Error codes.
const (
	CodeInternal uint32 = iota + 1
	CodeBadRequest
	CodeUnknownFile
	CodeUnknownJob
	CodeUnknownVersion
	CodeOverloaded
)

// Kind implements Message.
func (*ErrorMsg) Kind() Kind { return KindError }

func (m *ErrorMsg) encode(e *encoder) {
	e.uint32(m.Code)
	e.string(m.Text)
}

func (m *ErrorMsg) decode(d *decoder) {
	m.Code = d.uint32()
	m.Text = d.string()
}

// Error renders the message as an error string.
func (m *ErrorMsg) Error() string {
	return fmt.Sprintf("shadow server error %d: %s", m.Code, m.Text)
}

// Bye closes a session gracefully.
type Bye struct{}

// Kind implements Message.
func (*Bye) Kind() Kind { return KindBye }

func (m *Bye) encode(*encoder) {}
func (m *Bye) decode(*decoder) {}
