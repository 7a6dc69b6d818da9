package main

import "testing"

// honestRecs produces the records a correct system would leave for n cycles
// after priming.
func honestRecs(t *testing.T, w *workload, seed uint64, n int) []cycleRec {
	t.Helper()
	p := newPlan(w, seed, 0)
	var recs []cycleRec
	for f := 0; f < w.files; f++ {
		sum, ok := expectedSum(w, p.files[f].content)
		if !ok {
			t.Fatalf("%s: the job fails on its own input", w.name)
		}
		recs = append(recs, cycleRec{data: f, outSum: sum})
	}
	for i := 0; i < n; i++ {
		data, script := p.step()
		sum, _ := expectedSum(w, p.files[data].content)
		recs = append(recs, cycleRec{data: data, script: script, outSum: sum})
	}
	return recs
}

func TestOracleCountsCorruptedOutput(t *testing.T) {
	for _, w := range workloads {
		recs := honestRecs(t, w, 42, 30)
		if failed := verify(newPlan(w, 42, 0), recs); failed != 0 {
			t.Fatalf("%s: oracle failed %d honest cycles", w.name, failed)
		}
		// A delivered stdout that differs from the local run by one bit, a
		// cycle that errored, and an output for the wrong file.
		recs[len(recs)-1].outSum ^= 1
		recs[w.files+3].failed = true
		recs[w.files+5].data++
		if failed := verify(newPlan(w, 42, 0), recs); failed != 3 {
			t.Fatalf("%s: oracle counted %d failures, want 3", w.name, failed)
		}
		// The same records against another seed's inputs are all wrong.
		if failed := verify(newPlan(w, 43, 0), honestRecs(t, w, 42, 30)); failed < 30 {
			t.Fatalf("%s: oracle accepted %d cycles computed on other inputs", w.name, 30+w.files-failed)
		}
	}
}
