package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanLog holds one session's boundary spans for one traced segment: the
// benchmark's own timestamps around its calls into the product. Only the
// session's goroutine appends, so it needs no lock; it lives in memory until
// the run ends.
type spanLog struct {
	recording bool
	epoch     time.Time
	cycles    []cycleSpans
}

// cycleSpans is one cycle's four boundaries, in nanoseconds since the epoch:
// the span `cycle` runs from write to end, and its children are
// client.write [write, submit), client.submit [submit, wait) and
// client.wait [wait, end).
type cycleSpans struct {
	Session                  int
	Write, Submit, Wait, End int64
}

func newSpanLog(cycles int) *spanLog { return &spanLog{cycles: make([]cycleSpans, 0, cycles)} }

func (l *spanLog) cycle(session int, write, submit, wait, end time.Time) {
	if !l.recording {
		return
	}
	l.cycles = append(l.cycles, cycleSpans{
		Session: session,
		Write:   int64(write.Sub(l.epoch)), Submit: int64(submit.Sub(l.epoch)),
		Wait: int64(wait.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
	})
}

// traceSpan is the exported form of a span: name, start, end, the span that
// caused it, and the cycle all spans of one cycle share.
type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	Cycle   int    `json:"cycle"`
	Session int    `json:"session"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// traceFileCycles bounds how many cycles per session log the trace file
// carries; the percentiles are computed over all of them in memory.
const traceFileCycles = 500

// writeTrace writes the boundary spans of the traced segments, and the layer
// replay's spans, to path.
func writeTrace(path string, logs []*spanLog, replay []traceSpan) error {
	spans := make([]traceSpan, 0, len(replay)+4*traceFileCycles*len(logs))
	id := 0
	add := func(parent int, name string, cycle, session int, start, end int64) int {
		id++
		spans = append(spans, traceSpan{ID: id, Parent: parent, Name: name, Cycle: cycle, Session: session, StartNs: start, EndNs: end})
		return id
	}
	for _, l := range logs {
		for c, cs := range l.cycles[:min(len(l.cycles), traceFileCycles)] {
			root := add(0, "cycle", c, cs.Session, cs.Write, cs.End)
			add(root, "client.write", c, cs.Session, cs.Write, cs.Submit)
			add(root, "client.submit", c, cs.Session, cs.Submit, cs.Wait)
			add(root, "client.wait", c, cs.Session, cs.Wait, cs.End)
		}
	}
	for _, sp := range replay {
		sp.ID += id
		if sp.Parent != 0 {
			sp.Parent += id
		}
		spans = append(spans, sp)
	}
	buf, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
