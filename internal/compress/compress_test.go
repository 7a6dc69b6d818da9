package compress

import (
	"bytes"
	"crypto/rand"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{name: "empty", give: nil},
		{name: "tiny", give: []byte("x")},
		{name: "text", give: []byte(strings.Repeat("the quick brown fox\n", 200))},
		{name: "binary zeros", give: make([]byte, 4096)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			enc := Encode(tt.give)
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !bytes.Equal(got, tt.give) {
				t.Fatalf("round trip mismatch: %d bytes vs %d", len(got), len(tt.give))
			}
		})
	}
}

func TestCompressibleShrinks(t *testing.T) {
	payload := []byte(strings.Repeat("velocity pressure gradient tensor\n", 500))
	enc := Encode(payload)
	if len(enc) >= len(payload)/2 {
		t.Fatalf("compressible payload barely shrank: %d -> %d", len(payload), len(enc))
	}
}

func TestIncompressibleExpandsByAtMostOneByte(t *testing.T) {
	payload := make([]byte, 8192)
	if _, err := rand.Read(payload); err != nil {
		t.Fatal(err)
	}
	enc := Encode(payload)
	if len(enc) > len(payload)+1 {
		t.Fatalf("incompressible payload expanded: %d -> %d", len(payload), len(enc))
	}
	got, err := Decode(enc)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{name: "empty", give: nil},
		{name: "unknown tag", give: []byte{9, 1, 2}},
		{name: "corrupt deflate", give: []byte{1, 0xFF, 0xFF, 0xFF}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.give); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		got, err := Decode(Encode(b))
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
