package env

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"shadowedit/internal/wire"
)

func TestJobDBSaveLoadRoundTrip(t *testing.T) {
	db := NewJobDB()
	db.Record(JobRecord{
		Server: "super", ID: 1, State: wire.JobQueued,
		OutputFile: "out with spaces.txt", ErrorFile: "e\nwith newline",
		Detail: "collecting",
	})
	db.SetOutput("super", 2, wire.JobDone, 3, []byte("result\nbytes\x00binary"), []byte("warnings\n"))
	db.Record(JobRecord{Server: "cray", ID: 1, State: wire.JobRunning})

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadJobDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := db.List()
	got := loaded.List()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestJobDBSaveLoadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewJobDB().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadJobDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.List()) != 0 {
		t.Fatal("empty db loaded non-empty")
	}
}

func TestLoadJobDBErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "field outside record", give: "state 1\n"},
		{name: "bad job header", give: "job onlyserver\n"},
		{name: "bad id", give: "job s abc\n"},
		{name: "unknown field", give: "job s 1\ncolour blue\n"},
		{name: "bad state", give: "job s 1\nstate x\n"},
		{name: "bad base64", give: "job s 1\ndetail ***\n"},
		{name: "bad exit", give: "job s 1\nexit zero\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := LoadJobDB(strings.NewReader(tt.give)); !errors.Is(err, ErrCorruptJobDB) {
				t.Fatalf("LoadJobDB = %v, want ErrCorruptJobDB", err)
			}
		})
	}
}

func TestLoadJobDBNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = LoadJobDB(bytes.NewReader(b))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestJobDBSaveIsCommentedText(t *testing.T) {
	db := NewJobDB()
	db.Record(JobRecord{Server: "s", ID: 1, State: wire.JobQueued})
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "#") || !strings.Contains(out, "job s 1") {
		t.Fatalf("save format:\n%s", out)
	}
}

// TestJobDBSaveLoadOnDisk: records whose output has aged out of memory
// round-trip as what they are — delivered, bytes in the result files.
func TestJobDBSaveLoadOnDisk(t *testing.T) {
	db := NewJobDB()
	for id := uint64(1); id <= outputWindow+4; id++ {
		db.Record(JobRecord{Server: "super", ID: id, State: wire.JobQueued, OutputFile: "job.out", ErrorFile: "job.err"})
		db.Deliver(JobRecord{Server: "super", ID: id, State: wire.JobDone, Stdout: []byte("bytes"), Stderr: []byte("warn")})
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "on-disk"); n != 4 {
		t.Fatalf("saved %d on-disk records, want 4:\n%s", n, buf.String())
	}
	loaded, err := LoadJobDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.List(), db.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}
