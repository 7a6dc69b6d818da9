package server

import (
	"slices"
	"sort"

	"shadowedit/internal/jobs"
	"shadowedit/internal/wire"
)

// What the server may forget, and when (DESIGN.md has the whole table): a
// job's inputs when its run ends, the job itself when its output is
// acknowledged. What outlives a job is a fixed-size summary, enough to answer
// STATUS_REQ and to recognize a retried SUBMIT; the only per-job state that
// is bounded by neither the cache nor the live sessions is the finished,
// unacknowledged output of a client that is away, and JobStats exports it.

// summaryRingSize is how many acknowledged jobs the server remembers: long
// enough for a status query or a retried SUBMIT that crossed the
// acknowledgement on the wire, short enough to be nothing (a constant, not a
// knob: nothing a deployment could tune depends on it).
const summaryRingSize = 1024

// jobSummary is what is kept of a retired job.
type jobSummary struct {
	id       uint64
	owner    identity
	tag      uint64
	state    wire.JobState
	exit     int32
	outBytes int
}

func (m *jobSummary) status() wire.JobStatus {
	return wire.JobStatus{Job: m.id, State: m.state, Detail: terminalDetail(m.exit, m.outBytes)}
}

// retiredJobs is the ring of summaries plus the tallies the admin pages show.
// Guarded by Server.tagMu.
type retiredJobs struct {
	ring []jobSummary // grows to summaryRingSize, then wraps at total
	// total counts every job ever retired; failed those that ended in
	// JobFailed (the rest ended in JobDone).
	total, failed int64
}

// retire files an acknowledged job's summary and takes the job out of the
// table — in that order, so a status query between the two finds the job in
// one place or both, never in neither — and does both under tagMu, so a
// tally taken under tagMu (JobCounts, JobStats) counts the job in exactly
// one. The oldest summary, and that job's idempotency tag, fall off a full
// ring. acknowledge calls it once per job.
func (s *Server) retire(m jobSummary) {
	s.tagMu.Lock()
	defer s.tagMu.Unlock()
	defer s.jobs.remove(m.id)
	r := &s.retired
	if len(r.ring) < summaryRingSize {
		r.ring = append(r.ring, m)
	} else {
		slot := &r.ring[r.total%summaryRingSize]
		if tags := s.submitTags[slot.owner]; slot.tag != 0 && tags[slot.tag] == slot.id {
			delete(tags, slot.tag)
			if len(tags) == 0 {
				delete(s.submitTags, slot.owner)
			}
		}
		*slot = m
	}
	r.total++
	if m.state == wire.JobFailed {
		r.failed++
	}
}

// retiredStatus answers STATUS_REQ for a job that has left the table: one
// job of owner's (all false) or every job of owner's still in the ring.
func (s *Server) retiredStatus(owner identity, id uint64, all bool) []wire.JobStatus {
	s.tagMu.Lock()
	defer s.tagMu.Unlock()
	var out []wire.JobStatus
	for i := range s.retired.ring {
		if m := &s.retired.ring[i]; m.owner == owner && (all || m.id == id) {
			out = append(out, m.status())
		}
	}
	return out
}

// JobStats is the job table's footprint (/metrics, /sessionz).
type JobStats struct {
	// Live counts the jobs in the table: submitted, output not yet
	// acknowledged.
	Live int
	// Unacked counts the live jobs that have finished, UnackedBytes their
	// output: what the server holds for clients that are away or slow. It is
	// the one structure bounded by neither the cache nor the live sessions.
	Unacked      int
	UnackedBytes int64
	// Retired counts the jobs ever acknowledged and forgotten.
	Retired int64
}

// JobStats walks the table; nothing here is kept by hand beside it.
func (s *Server) JobStats() JobStats {
	var st JobStats
	s.tagMu.Lock()
	defer s.tagMu.Unlock()
	s.jobs.forEach(func(j *job) {
		st.Live++
		j.mu.Lock()
		if j.state.Terminal() {
			st.Unacked++
			st.UnackedBytes += int64(len(j.result.Stdout) + len(j.result.Stderr))
		}
		j.mu.Unlock()
	})
	st.Retired = s.retired.total
	return st
}

// JobCounts tallies every submitted job by lifecycle state (/sessionz and
// /healthz reporting): the live ones where they stand, the retired ones where
// they ended.
func (s *Server) JobCounts() map[wire.JobState]int {
	counts := make(map[wire.JobState]int)
	s.tagMu.Lock()
	defer s.tagMu.Unlock()
	s.jobs.forEach(func(j *job) {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		counts[state]++
	})
	total, failed := s.retired.total, s.retired.failed
	if total > failed {
		counts[wire.JobDone] += int(total - failed)
	}
	if failed > 0 {
		counts[wire.JobFailed] += int(failed)
	}
	return counts
}

// statusOf answers STATUS_REQ for owner: job id, or with all set every job
// of owner's the server still knows, live or retired, ascending by id.
func (s *Server) statusOf(owner identity, id uint64, all bool) []wire.JobStatus {
	var out []wire.JobStatus
	if all {
		for _, j := range s.jobsOfOwner(owner) {
			out = append(out, j.status())
		}
	} else if j, ok := s.lookupJob(id); ok {
		if j.owner != owner {
			return nil
		}
		return []wire.JobStatus{j.status()}
	}
	// A job acknowledged between the two reads is in both; the live answer
	// (sorted first) wins.
	out = append(out, s.retiredStatus(owner, id, all)...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Job < out[b].Job })
	return slices.CompactFunc(out, func(a, b wire.JobStatus) bool { return a.Job == b.Job })
}

// acknowledge handles OUTPUT_ACK for j from ss: the job's result is released
// (its stdout returned, for the acknowledging session's reverse-shadow base),
// and the job retired. ok is false when the ack changes nothing: the job has
// not finished, is already retired, or is neither ss's own nor routed to it.
func (s *Server) acknowledge(ss *session, j *job) (stdout []byte, ok bool) {
	if j.owner != ss.identity() && (j.routeHost == "" || j.routeHost != ss.clientHost) {
		return nil, false
	}
	j.mu.Lock()
	if !j.state.Terminal() || j.retired {
		j.mu.Unlock()
		return nil, false
	}
	j.retired = true
	m := jobSummary{id: j.id, owner: j.owner, tag: j.tag, state: j.state,
		exit: j.result.ExitCode, outBytes: len(j.result.Stdout)}
	stdout = j.result.Stdout
	j.result = jobs.Result{}
	j.mu.Unlock()
	s.retire(m)
	return stdout, true
}
