package env

import (
	"sort"
	"sync"

	"shadowedit/internal/wire"
)

// JobRecord is the client-side record of one submitted job. "The client
// maintains the information on the status of all the jobs" (§6.2).
type JobRecord struct {
	// Server is the supercomputer host the job was submitted to (a user
	// may access more than one).
	Server string
	// ID is the server-assigned job identifier.
	ID uint64
	// State is the last known lifecycle state.
	State wire.JobState
	// Detail is the server's last status text.
	Detail string
	// OutputFile and ErrorFile are where results are stored locally.
	OutputFile string
	ErrorFile  string
	// Stdout, Stderr and ExitCode hold the delivered results once the
	// job completes.
	Stdout   []byte
	Stderr   []byte
	ExitCode int32
	// Delivered marks that output arrived and was acknowledged.
	Delivered bool
	// OutputOnDisk marks a delivered record whose Stdout and Stderr are no
	// longer held in memory: OutputFile and ErrorFile are the copy (the
	// client's Wait and Fetch read them back).
	OutputOnDisk bool
}

// jobKey identifies a job across servers.
type jobKey struct {
	server string
	id     uint64
}

// A client that lives as long as its user's login must not grow with every
// job it ever ran. The output itself is on disk, in the result file, so the
// database keeps the bytes of only the outputWindow most recent deliveries
// (re-reading a result that has just arrived should not touch the disk) and
// remembers historyWindow delivered jobs at all; jobs still awaited are never
// forgotten. Constants, not knobs.
const (
	outputWindow  = 8
	historyWindow = 1024
)

// JobDB tracks the jobs a client has submitted, across all servers: every
// job whose output is still awaited, and the most recent delivered ones.
type JobDB struct {
	mu   sync.Mutex
	jobs map[jobKey]*JobRecord
	// delivered holds the keys of the delivered records in delivery order:
	// it grows to historyWindow, then wraps at deliveries.
	delivered  []jobKey
	deliveries uint64
}

// NewJobDB returns an empty database.
func NewJobDB() *JobDB {
	return &JobDB{jobs: make(map[jobKey]*JobRecord)}
}

// Record stores a new job entry (typically at submit time). If output for
// the job was already delivered — possible when a job with no inputs
// finishes before the submitter's bookkeeping runs — the delivered results
// are preserved and only the metadata fields are filled in.
func (db *JobDB) Record(rec JobRecord) {
	db.mu.Lock()
	defer db.mu.Unlock()
	k := jobKey{server: rec.Server, id: rec.ID}
	if old, ok := db.jobs[k]; ok && old.Delivered {
		old.OutputFile = rec.OutputFile
		old.ErrorFile = rec.ErrorFile
		return
	}
	cp := rec
	db.jobs[k] = &cp
	if cp.Delivered {
		db.noteDelivery(k)
	}
}

// UpdateState records a state transition reported by the server.
func (db *JobDB) UpdateState(server string, id uint64, state wire.JobState, detail string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec := db.recordLocked(jobKey{server: server, id: id})
	rec.State = state
	rec.Detail = detail
}

// recordLocked returns the record for k, creating it. Caller holds db.mu.
func (db *JobDB) recordLocked(k jobKey) *JobRecord {
	rec, ok := db.jobs[k]
	if !ok {
		rec = &JobRecord{Server: k.server, ID: k.id}
		db.jobs[k] = rec
	}
	return rec
}

// SetOutput stores copies of a job's delivered results and marks it delivered.
func (db *JobDB) SetOutput(server string, id uint64, state wire.JobState, exitCode int32, stdout, stderr []byte) {
	db.Deliver(JobRecord{Server: server, ID: id, State: state, ExitCode: exitCode,
		Stdout: append([]byte(nil), stdout...), Stderr: append([]byte(nil), stderr...)})
}

// Deliver marks a job delivered with rec's state, exit code and output; the
// database keeps rec.Stdout and rec.Stderr themselves, which the caller must
// not modify afterwards. File names rec leaves empty keep what an earlier
// Record stored.
func (db *JobDB) Deliver(rec JobRecord) {
	db.mu.Lock()
	defer db.mu.Unlock()
	k := jobKey{server: rec.Server, id: rec.ID}
	cur := db.recordLocked(k)
	cur.State, cur.ExitCode = rec.State, rec.ExitCode
	cur.Stdout, cur.Stderr, cur.OutputOnDisk = rec.Stdout, rec.Stderr, false
	if rec.OutputFile != "" {
		cur.OutputFile = rec.OutputFile
	}
	if rec.ErrorFile != "" {
		cur.ErrorFile = rec.ErrorFile
	}
	if !cur.Delivered {
		cur.Delivered = true
		db.noteDelivery(k)
	}
}

// noteDelivery enters k in the delivery order and lets go of what has aged
// out of the two windows. Caller holds db.mu.
func (db *JobDB) noteDelivery(k jobKey) {
	n := db.deliveries
	db.deliveries++
	if len(db.delivered) < historyWindow {
		db.delivered = append(db.delivered, k)
	} else {
		slot := &db.delivered[n%historyWindow]
		delete(db.jobs, *slot)
		*slot = k
	}
	if n < outputWindow {
		return
	}
	// The bytes go only when the record names the file that holds them.
	if old := db.jobs[db.delivered[(n-outputWindow)%historyWindow]]; old != nil && old.OutputFile != "" &&
		(len(old.Stderr) == 0 || old.ErrorFile != "") {
		old.Stdout, old.Stderr, old.OutputOnDisk = nil, nil, true
	}
}

// Delivered reports whether the job's output has been delivered (and the job
// not yet forgotten), without copying the record.
func (db *JobDB) Delivered(server string, id uint64) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.jobs[jobKey{server: server, id: id}]
	return ok && rec.Delivered
}

// Get returns a copy of the record for (server, id).
func (db *JobDB) Get(server string, id uint64) (JobRecord, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.jobs[jobKey{server: server, id: id}]
	if !ok {
		return JobRecord{}, false
	}
	return cloneRecord(rec), true
}

// List returns copies of all records, ordered by server then id.
func (db *JobDB) List() []JobRecord {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]JobRecord, 0, len(db.jobs))
	for _, rec := range db.jobs {
		out = append(out, cloneRecord(rec))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Server != out[j].Server {
			return out[i].Server < out[j].Server
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Pending returns the jobs not yet in a terminal state.
func (db *JobDB) Pending() []JobRecord {
	all := db.List()
	var out []JobRecord
	for _, rec := range all {
		if !rec.State.Terminal() {
			out = append(out, rec)
		}
	}
	return out
}

func cloneRecord(rec *JobRecord) JobRecord {
	cp := *rec
	cp.Stdout = append([]byte(nil), rec.Stdout...)
	cp.Stderr = append([]byte(nil), rec.Stderr...)
	return cp
}
