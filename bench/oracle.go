package main

import (
	"hash/crc32"

	"shadowedit/internal/jobs"
)

// expectedSum runs the workload's job locally on content, through the same
// jobs.Execute the server calls, and returns the checksum of its stdout (ok
// is false if the job would not exit cleanly).
func expectedSum(w *workload, content []byte) (sum uint32, ok bool) {
	res := jobs.Execute(jobs.Request{
		Script: w.scriptText(),
		Inputs: map[string][]byte{dataName: content},
	})
	return crc32.Checksum(res.Stdout, castagnoli), res.ExitCode == 0 && len(res.Stderr) == 0
}

// verify is the correctness oracle. twin must be a fresh plan built from the
// arguments the session's own plan was built from; verify steps it through
// the same cycles, recomputes each cycle's output locally from the same
// bytes, and returns how many of recs failed or delivered different output.
// It runs after the measured phase, so judging costs the system under test
// nothing.
func verify(twin *plan, recs []cycleRec) (failed int) {
	w := twin.w
	for i, rec := range recs {
		data := i // priming submits file i unedited
		if i >= w.files {
			data, _ = twin.step()
		}
		want, ok := expectedSum(w, twin.files[data].content)
		if rec.failed || !ok || rec.data != data || rec.outSum != want {
			failed++
		}
	}
	return failed
}
