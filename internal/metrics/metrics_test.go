package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCountersAccumulate(t *testing.T) {
	var c Counters
	c.AddDelta(100)
	c.AddDelta(50)
	c.AddFull(1000)
	c.AddControl(10)
	c.AddOutput(30)

	s := c.Snapshot()
	if s.DeltaBytes != 150 || s.FullBytes != 1000 || s.ControlBytes != 10 || s.OutputBytes != 30 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Messages != 5 || s.DeltaSends != 2 || s.FullSends != 1 {
		t.Fatalf("message counts = %+v", s)
	}
	if s.TotalBytes() != 1190 {
		t.Fatalf("TotalBytes = %d, want 1190", s.TotalBytes())
	}
}

func TestString(t *testing.T) {
	var c Counters
	c.AddDelta(1)
	got := c.Snapshot().String()
	if !strings.Contains(got, "1 delta") {
		t.Fatalf("String = %q", got)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AddDelta(1)
				c.AddControl(1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.DeltaBytes != 8000 || s.ControlBytes != 8000 || s.Messages != 16000 {
		t.Fatalf("lost updates: %+v", s)
	}
}

// TestMergeSumsEveryField fills every Snapshot field with a distinct value
// via reflection and asserts Merge doubles all of them — so a counter added
// later cannot silently fall out of fleet sums.
func TestMergeSumsEveryField(t *testing.T) {
	var a Snapshot
	v := reflect.ValueOf(&a).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	m := Merge(a, a)
	mv := reflect.ValueOf(m)
	for i := 0; i < mv.NumField(); i++ {
		if got, want := mv.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("field %s: merged = %d, want %d", mv.Type().Field(i).Name, got, want)
		}
	}
}
