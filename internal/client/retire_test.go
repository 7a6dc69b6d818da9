package client

import (
	"context"
	"fmt"
	"testing"

	"shadowedit/internal/wire"
)

// deliver plays the server for one job with no inputs: SUBMIT_OK, then the
// output, then the client's acknowledgement.
func (f *fakeServer) deliver(cl *Client, job uint64, stdout string) {
	f.t.Helper()
	res := make(chan error, 1)
	go func() {
		got, err := cl.Submit(context.Background(), "/run.job", nil, SubmitOptions{})
		if err == nil && got != job {
			err = fmt.Errorf("submit returned job %d, want %d", got, job)
		}
		res <- err
	}()
	if _, ok := f.recv().(*wire.Submit); !ok {
		f.t.Fatal("expected SUBMIT")
	}
	f.send(&wire.SubmitOK{Job: job})
	f.send(&wire.Output{Job: job, State: wire.JobDone, Mode: wire.OutputFull, Stdout: []byte(stdout)})
	if err := <-res; err != nil {
		f.t.Fatal(err)
	}
	if ack, ok := f.recv().(*wire.OutputAck); !ok || ack.Job != job {
		f.t.Fatalf("expected OUTPUT_ACK for job %d, got %#v", job, ack)
	}
}

func newPairWithScript(t *testing.T) (*Client, *fakeServer) {
	t.Helper()
	cl, fs, universe := newPair(t)
	if err := universe.WriteFile("ws", "/run.job", []byte("echo hi\n")); err != nil {
		t.Fatal(err)
	}
	return cl, fs
}

// TestDeliveredDoesNotGrowUnderWait: a caller that only ever uses Wait (the
// CLI, the benchmark, every example) must leave nothing behind per job — the
// delivered list used to grow by one id per job for the client's lifetime,
// because only WaitAny ever took one off it.
func TestDeliveredDoesNotGrowUnderWait(t *testing.T) {
	cl, fs := newPairWithScript(t)
	for job := uint64(1); job <= 50; job++ {
		fs.deliver(cl, job, fmt.Sprintf("out %d\n", job))
		rec, err := cl.Wait(context.Background(), job)
		if err != nil || string(rec.Stdout) != fmt.Sprintf("out %d\n", job) {
			t.Fatalf("wait %d = %q, %v", job, rec.Stdout, err)
		}
		if awaiting, untaken := cl.Backlog(); awaiting != 0 || untaken != 0 {
			t.Fatalf("after job %d: %d awaited, %d untaken; want an idle client", job, awaiting, untaken)
		}
	}
}

// TestUntakenDeliveriesAreBounded: outputs nobody collects (routed here, or a
// caller that never waits) cost a bounded list, oldest dropped first.
func TestUntakenDeliveriesAreBounded(t *testing.T) {
	cl, fs, _ := newPair(t)
	for job := uint64(1); job <= maxUntaken+10; job++ {
		fs.send(&wire.Output{Job: job, State: wire.JobDone, Mode: wire.OutputFull, Stdout: []byte("x\n")})
		if _, ok := fs.recv().(*wire.OutputAck); !ok {
			t.Fatal("expected OUTPUT_ACK")
		}
	}
	if _, untaken := cl.Backlog(); untaken != maxUntaken {
		t.Fatalf("untaken = %d, want the bound %d", untaken, maxUntaken)
	}
	rec, err := cl.WaitAny(context.Background())
	if err != nil || rec.ID != 11 {
		t.Fatalf("WaitAny = job %d, %v; want the oldest job still listed (11)", rec.ID, err)
	}
}

// TestWaitOnDeliveredJobs: Wait answers from the job database once a job has
// left the per-job maps — after the output already arrived, and a second
// time — and Wait and Fetch on a job older than the in-memory byte window
// return the result file's bytes.
func TestWaitOnDeliveredJobs(t *testing.T) {
	cl, fs := newPairWithScript(t)
	const jobs = 20 // more than the job database's byte window
	for job := uint64(1); job <= jobs; job++ {
		fs.deliver(cl, job, fmt.Sprintf("out %d\n", job))
	}
	if awaiting, untaken := cl.Backlog(); awaiting != 0 || untaken != jobs {
		t.Fatalf("backlog = %d awaited, %d untaken", awaiting, untaken)
	}
	for _, job := range []uint64{jobs, jobs, 1, 1} { // fresh twice, then on-disk twice
		rec, err := cl.Wait(context.Background(), job)
		if err != nil || !rec.Delivered || rec.OutputOnDisk || string(rec.Stdout) != fmt.Sprintf("out %d\n", job) {
			t.Fatalf("wait %d = %+v, %v", job, rec, err)
		}
	}
	if held, _ := cl.Jobs().Get("super", 1); !held.OutputOnDisk || held.Stdout != nil {
		t.Fatalf("job 1 is %d deliveries old and still holds its bytes: %+v", jobs-1, held)
	}
	// Fetch of a delivered job asks the server nothing.
	rec, err := cl.Fetch(context.Background(), 2)
	if err != nil || string(rec.Stdout) != "out 2\n" || rec.OutputFile != "job-2.out" {
		t.Fatalf("fetch 2 = %+v, %v", rec, err)
	}
	if _, untaken := cl.Backlog(); untaken != jobs-3 {
		t.Fatalf("untaken = %d after collecting three of %d jobs", untaken, jobs)
	}
}

// TestDuplicateOutputAfterRetirement: a re-sent output for a job the client
// has already delivered and dropped from its maps is acknowledged and
// nothing else — no second result file, no routed-job record.
func TestDuplicateOutputAfterRetirement(t *testing.T) {
	cl, fs := newPairWithScript(t)
	fs.deliver(cl, 7, "first\n")
	if _, err := cl.Wait(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	fs.send(&wire.Output{Job: 7, State: wire.JobDone, Mode: wire.OutputFull, Stdout: []byte("second\n")})
	if ack, ok := fs.recv().(*wire.OutputAck); !ok || ack.Job != 7 {
		t.Fatalf("duplicate answered with %#v", ack)
	}
	rec, err := cl.Wait(context.Background(), 7)
	if err != nil || string(rec.Stdout) != "first\n" || rec.OutputFile != "job-7.out" {
		t.Fatalf("after duplicate: %+v, %v", rec, err)
	}
	if awaiting, untaken := cl.Backlog(); awaiting != 0 || untaken != 0 {
		t.Fatalf("duplicate left %d awaited, %d untaken", awaiting, untaken)
	}
}
