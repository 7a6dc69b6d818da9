package experiment

import (
	"context"

	"fmt"
	"io"
	"time"

	"shadowedit/internal/client"
	"shadowedit/internal/workload"

	shadow "shadowedit"
)

// OverlapResult measures §5.1's concurrency claim: "After the user modified
// the first file, the changes could be sent in the background while the user
// is modifying the second file."
type OverlapResult struct {
	FileSize int
	// ColdSubmit is the submit-to-results time when the edits are
	// notified only at submit time (no editing pause for transfers to
	// hide behind).
	ColdSubmit time.Duration
	// WarmSubmit is the submit-to-results time when each edit was
	// notified as its editing session ended, with user think time
	// between sessions during which the background transfers completed.
	WarmSubmit time.Duration
}

// Overlap is the fraction of the cold submit time hidden by background
// transfer.
func (r OverlapResult) Overlap() float64 {
	if r.ColdSubmit == 0 {
		return 0
	}
	return 1 - float64(r.WarmSubmit)/float64(r.ColdSubmit)
}

// thinkTime models the user's editing pause between two files — time the
// background transfer can hide behind.
const thinkTime = 5 * time.Minute

// RunBackgroundOverlap measures one (link, size) point: two data files are
// edited and resubmitted, once with back-to-back submit (cold) and once with
// editing pauses after each session (warm).
func RunBackgroundOverlap(cfg Config, size int) (OverlapResult, error) {
	cfg = cfg.withDefaults()
	res := OverlapResult{FileSize: size}
	for _, warm := range []bool{false, true} {
		d, err := overlapCycle(cfg, size, warm)
		if err != nil {
			return OverlapResult{}, err
		}
		if warm {
			res.WarmSubmit = d
		} else {
			res.ColdSubmit = d
		}
	}
	return res, nil
}

func overlapCycle(cfg Config, size int, warm bool) (time.Duration, error) {
	cluster, ws, err := newRig(cfg)
	if err != nil {
		return 0, err
	}
	defer cluster.Close()
	c, cork, err := connectCorked(cluster, ws, client.Config{User: "sci"})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	sed := ws.NewShadowEditor(c)

	gen := workload.NewGenerator(cfg.Seed)
	fileA := gen.File(size)
	fileB := gen.File(size)
	if err := ws.WriteFile("/u/sci/a.dat", fileA); err != nil {
		return 0, err
	}
	if err := ws.WriteFile("/u/sci/b.dat", fileB); err != nil {
		return 0, err
	}
	if err := ws.WriteFile("/u/sci/run.job", []byte("checksum a.dat b.dat\n")); err != nil {
		return 0, err
	}
	// Prime: first submission caches both files.
	job, err := c.Submit(context.Background(), "/u/sci/run.job", []string{"/u/sci/a.dat", "/u/sci/b.dat"}, shadow.SubmitOptions{})
	if err != nil {
		return 0, err
	}
	if _, err := c.Wait(context.Background(), job); err != nil {
		return 0, err
	}

	// Two editing sessions, 10% each.
	editA := func(b []byte) ([]byte, error) { return gen.Modify(b, 10, workload.EditMixed), nil }
	if warm {
		// The shadow editor notifies at session end; the user then
		// spends think time editing the next file while the transfer
		// proceeds in the background. In the simulation the transfer's
		// virtual arrival stamp is fixed when it is sent, so wait (in
		// real time) for the background exchange to finish before
		// advancing the virtual clock — exactly the semantics of a
		// transfer running concurrently with the user's pause.
		res, err := sed.Edit("/u/sci/a.dat", shadow.EditorFunc(editA))
		if err != nil {
			return 0, err
		}
		if err := awaitAck(c, res.File, res.Version); err != nil {
			return 0, err
		}
		ws.Host().Process(thinkTime)
		res, err = sed.Edit("/u/sci/b.dat", shadow.EditorFunc(editA))
		if err != nil {
			return 0, err
		}
		if err := awaitAck(c, res.File, res.Version); err != nil {
			return 0, err
		}
		ws.Host().Process(thinkTime)
	} else {
		// Cold: edit both files without shadow notifications (the
		// conventional habit); everything transfers at submit time.
		a, err := ws.ReadFile("/u/sci/a.dat")
		if err != nil {
			return 0, err
		}
		edited, _ := editA(a)
		if err := ws.WriteFile("/u/sci/a.dat", edited); err != nil {
			return 0, err
		}
		ws.Host().Process(thinkTime)
		b, err := ws.ReadFile("/u/sci/b.dat")
		if err != nil {
			return 0, err
		}
		edited, _ = editA(b)
		if err := ws.WriteFile("/u/sci/b.dat", edited); err != nil {
			return 0, err
		}
		ws.Host().Process(thinkTime)
	}

	start := cork.cork()
	job2, err := c.Submit(context.Background(), "/u/sci/run.job", []string{"/u/sci/a.dat", "/u/sci/b.dat"}, shadow.SubmitOptions{})
	if err != nil {
		return 0, err
	}
	if _, err := c.Wait(context.Background(), job2); err != nil {
		return 0, err
	}
	return ws.Host().Now() - start, nil
}

// awaitAck blocks (wall clock) until the server has acknowledged the given
// version, i.e. the background transfer finished.
func awaitAck(c *shadow.Client, ref shadow.FileRef, version uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for c.Store().Acked(ref) < version {
		if time.Now().After(deadline) {
			return fmt.Errorf("experiment: ack for %s v%d never arrived", ref, version)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// RenderOverlap prints the background-transfer experiment.
func RenderOverlap(w io.Writer, results []OverlapResult) {
	fmt.Fprintln(w, "Background update transfer (§5.1): submit latency with and without")
	fmt.Fprintln(w, "edit-time notifications (think time between sessions hides transfers)")
	fmt.Fprintf(w, "%-10s %16s %16s %10s\n", "File Size", "cold submit", "warm submit", "hidden")
	for _, r := range results {
		fmt.Fprintf(w, "%-10s %15.1fs %15.1fs %9.0f%%\n",
			sizeLabel(r.FileSize), r.ColdSubmit.Seconds(), r.WarmSubmit.Seconds(), r.Overlap()*100)
	}
}
