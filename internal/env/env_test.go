package env

import (
	"errors"
	"strings"
	"testing"

	"shadowedit/internal/diff"
)

func TestDefaultValid(t *testing.T) {
	e := Default("comer")
	if err := e.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	if e.Algorithm != diff.HuntMcIlroy {
		t.Error("default algorithm should be hunt-mcilroy (the prototype's diff)")
	}
	if e.RetainVersions < 0 {
		t.Error("negative default retention")
	}
}

func TestParseAlgorithmAliases(t *testing.T) {
	tests := []struct {
		give string
		want diff.Algorithm
	}{
		{"hunt-mcilroy", diff.HuntMcIlroy},
		{"HM", diff.HuntMcIlroy},
		{"diff", diff.HuntMcIlroy},
		{"myers", diff.Myers},
		{"Miller-Myers", diff.Myers},
		{"tichy", diff.TichyBlockMove},
		{"block-move", diff.TichyBlockMove},
	}
	for _, tt := range tests {
		got, err := ParseAlgorithm(tt.give)
		if err != nil || got != tt.want {
			t.Errorf("ParseAlgorithm(%q) = (%v, %v), want %v", tt.give, got, err, tt.want)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("ParseAlgorithm accepted garbage")
	}
}

func TestExpandTemplates(t *testing.T) {
	e := Default("u")
	if got := e.ExpandOutput(17); got != "job-17.out" {
		t.Errorf("ExpandOutput = %q", got)
	}
	if got := e.ExpandError(17); got != "job-17.err" {
		t.Errorf("ExpandError = %q", got)
	}
	e.OutputFile = "fixed.out"
	if got := e.ExpandOutput(17); got != "fixed.out" {
		t.Errorf("template without %%J = %q", got)
	}
}

func TestValidateRejectsBadAlgorithm(t *testing.T) {
	e := Default("u")
	e.Algorithm = diff.Algorithm(77)
	if err := e.Validate(); !errors.Is(err, ErrBadEnvironment) {
		t.Fatalf("Validate = %v, want ErrBadEnvironment", err)
	}
}

func TestMarshalIsStableAndCommented(t *testing.T) {
	e := Default("u")
	a, b := string(e.Marshal()), string(e.Marshal())
	if a != b {
		t.Fatal("Marshal not deterministic")
	}
	if !strings.HasPrefix(a, "#") {
		t.Fatal("Marshal output missing header comment")
	}
}
