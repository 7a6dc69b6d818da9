package env

import (
	"sync"
	"testing"

	"shadowedit/internal/wire"
)

func TestJobDBRecordAndGet(t *testing.T) {
	db := NewJobDB()
	db.Record(JobRecord{Server: "s1", ID: 1, State: wire.JobQueued, OutputFile: "a.out"})
	rec, ok := db.Get("s1", 1)
	if !ok || rec.State != wire.JobQueued || rec.OutputFile != "a.out" {
		t.Fatalf("Get = %+v, %v", rec, ok)
	}
	if _, ok := db.Get("s1", 2); ok {
		t.Fatal("Get found unknown job")
	}
	if _, ok := db.Get("s2", 1); ok {
		t.Fatal("Get crossed servers")
	}
}

func TestJobDBUpdateState(t *testing.T) {
	db := NewJobDB()
	db.Record(JobRecord{Server: "s", ID: 1, State: wire.JobQueued})
	db.UpdateState("s", 1, wire.JobRunning, "cpu 2")
	rec, _ := db.Get("s", 1)
	if rec.State != wire.JobRunning || rec.Detail != "cpu 2" {
		t.Fatalf("rec = %+v", rec)
	}
	// Update for an unseen job creates a stub (server knows best).
	db.UpdateState("s", 9, wire.JobDone, "")
	if rec, ok := db.Get("s", 9); !ok || rec.State != wire.JobDone {
		t.Fatalf("stub rec = %+v, %v", rec, ok)
	}
}

func TestJobDBSetOutput(t *testing.T) {
	db := NewJobDB()
	db.Record(JobRecord{Server: "s", ID: 1, State: wire.JobRunning})
	db.SetOutput("s", 1, wire.JobDone, 0, []byte("results\n"), []byte(""))
	rec, _ := db.Get("s", 1)
	if !rec.Delivered || rec.State != wire.JobDone || string(rec.Stdout) != "results\n" {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestJobDBListOrdering(t *testing.T) {
	db := NewJobDB()
	db.Record(JobRecord{Server: "beta", ID: 2})
	db.Record(JobRecord{Server: "alpha", ID: 9})
	db.Record(JobRecord{Server: "beta", ID: 1})
	got := db.List()
	if len(got) != 3 {
		t.Fatalf("List len = %d", len(got))
	}
	if got[0].Server != "alpha" || got[1].ID != 1 || got[2].ID != 2 {
		t.Fatalf("List order = %+v", got)
	}
}

func TestJobDBPending(t *testing.T) {
	db := NewJobDB()
	db.Record(JobRecord{Server: "s", ID: 1, State: wire.JobQueued})
	db.Record(JobRecord{Server: "s", ID: 2, State: wire.JobDone})
	db.Record(JobRecord{Server: "s", ID: 3, State: wire.JobRunning})
	db.Record(JobRecord{Server: "s", ID: 4, State: wire.JobFailed})
	pending := db.Pending()
	if len(pending) != 2 || pending[0].ID != 1 || pending[1].ID != 3 {
		t.Fatalf("Pending = %+v", pending)
	}
}

func TestJobDBGetReturnsCopy(t *testing.T) {
	db := NewJobDB()
	db.SetOutput("s", 1, wire.JobDone, 0, []byte("abc"), nil)
	rec, _ := db.Get("s", 1)
	rec.Stdout[0] = 'X'
	again, _ := db.Get("s", 1)
	if string(again.Stdout) != "abc" {
		t.Fatal("Get aliases stored output")
	}
}

func TestJobDBConcurrent(t *testing.T) {
	db := NewJobDB()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := uint64(i % 10)
				db.Record(JobRecord{Server: "s", ID: id, State: wire.JobQueued})
				db.UpdateState("s", id, wire.JobRunning, "")
				db.Get("s", id)
				db.List()
			}
		}(g)
	}
	wg.Wait()
	if got := len(db.List()); got != 10 {
		t.Fatalf("List len = %d, want 10", got)
	}
}

// TestJobDBWindows: the database keeps the output bytes of the outputWindow
// most recent deliveries (older ones name the result file instead),
// remembers historyWindow delivered jobs, and never forgets a job whose
// output is still awaited.
func TestJobDBWindows(t *testing.T) {
	db := NewJobDB()
	db.Record(JobRecord{Server: "s", ID: 1 << 40, State: wire.JobQueued}) // awaited throughout
	const n = historyWindow + 50
	for id := uint64(1); id <= n; id++ {
		db.Record(JobRecord{Server: "s", ID: id, State: wire.JobQueued, OutputFile: "o", ErrorFile: "e"})
		db.Deliver(JobRecord{Server: "s", ID: id, State: wire.JobDone, Stdout: []byte("out"), Stderr: []byte("err")})
	}
	if got := len(db.List()); got != historyWindow+1 {
		t.Fatalf("%d records after %d deliveries, want the %d-job history and the awaited job", got, n, historyWindow)
	}
	if _, ok := db.Get("s", 50); ok {
		t.Fatal("job 50 is older than the history window and still known")
	}
	if rec, ok := db.Get("s", 51); !ok || !rec.Delivered || !rec.OutputOnDisk || rec.OutputFile != "o" {
		t.Fatalf("oldest remembered job = %+v, %v", rec, ok)
	}
	if !db.Delivered("s", n) || db.Delivered("s", 1<<40) || db.Delivered("s", 50) {
		t.Fatal("Delivered disagrees with the records")
	}
	for id := uint64(n - outputWindow - 3); id <= n; id++ {
		rec, _ := db.Get("s", id)
		fresh := id > n-outputWindow
		if rec.OutputOnDisk == fresh || (string(rec.Stdout) == "out") != fresh || (string(rec.Stderr) == "err") != fresh {
			t.Fatalf("job %d (newest is %d): %+v", id, n, rec)
		}
	}
	if len(db.Pending()) != 1 {
		t.Fatalf("pending = %+v", db.Pending())
	}
}

// TestJobDBKeepsBytesWithoutAFile: output is dropped from memory only when
// the record says where else it is.
func TestJobDBKeepsBytesWithoutAFile(t *testing.T) {
	db := NewJobDB()
	for id := uint64(1); id <= 3*outputWindow; id++ {
		db.SetOutput("s", id, wire.JobDone, 0, []byte("only copy"), nil)
	}
	if rec, _ := db.Get("s", 1); rec.OutputOnDisk || string(rec.Stdout) != "only copy" {
		t.Fatalf("record with no result file lost its output: %+v", rec)
	}
}

// TestJobDBDeliverTakesTheBytes: Deliver keeps the caller's slices (one copy
// of an output in memory, not two); Get still hands out copies.
func TestJobDBDeliverTakesTheBytes(t *testing.T) {
	db := NewJobDB()
	out := []byte("abc")
	db.Deliver(JobRecord{Server: "s", ID: 1, State: wire.JobDone, Stdout: out})
	db.Deliver(JobRecord{Server: "s", ID: 1, State: wire.JobDone, Stdout: out}) // a second delivery is not a second history entry
	if db.deliveries != 1 || &db.jobs[jobKey{"s", 1}].Stdout[0] != &out[0] {
		t.Fatalf("deliveries = %d, or Deliver copied", db.deliveries)
	}
	rec, _ := db.Get("s", 1)
	rec.Stdout[0] = 'X'
	if out[0] != 'a' {
		t.Fatal("Get aliases stored output")
	}
}
