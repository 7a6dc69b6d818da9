// Package env implements the shadow environment (§6.3.1): "a database that
// contains the information about the status of all the jobs submitted and
// customization information for each user."
//
// The environment is set up automatically with defaults, and the user may
// customize it (default host, editor, version retention, delta algorithm,
// compression, output routing). `shadow env` prints it in a line-oriented
// key=value text form, in the spirit of the original UNIX prototype.
package env

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"shadowedit/internal/diff"
)

// ErrBadEnvironment reports an invalid environment.
var ErrBadEnvironment = errors.New("env: bad environment")

// Environment is one user's customization record.
type Environment struct {
	// User is the owner.
	User string
	// DefaultHost is the supercomputer used when submit names none.
	DefaultHost string
	// Editor is the encapsulated editor command ("specified through an
	// environment variable" in the prototype).
	Editor string
	// RetainVersions bounds old versions kept beyond protocol needs.
	RetainVersions int
	// Algorithm selects the differencing algorithm.
	Algorithm diff.Algorithm
	// Compress enables the compression layer on bulk transfers.
	Compress bool
	// OutputFile and ErrorFile are the default result file names; %J
	// expands to the job id.
	OutputFile string
	ErrorFile  string
	// WantOutputDelta enables reverse shadow processing of job output.
	WantOutputDelta bool
}

// Default returns the automatic environment for a user: sensible behaviour
// with no setup, per the transparency objective.
func Default(user string) Environment {
	return Environment{
		User:            user,
		DefaultHost:     "",
		Editor:          "ed",
		RetainVersions:  1,
		Algorithm:       diff.HuntMcIlroy,
		Compress:        false,
		OutputFile:      "job-%J.out",
		ErrorFile:       "job-%J.err",
		WantOutputDelta: false,
	}
}

// Validate checks internal consistency.
func (e Environment) Validate() error {
	if e.User == "" {
		return fmt.Errorf("%w: empty user", ErrBadEnvironment)
	}
	if e.RetainVersions < 0 {
		return fmt.Errorf("%w: negative retention", ErrBadEnvironment)
	}
	switch e.Algorithm {
	case diff.HuntMcIlroy, diff.Myers, diff.TichyBlockMove:
	default:
		return fmt.Errorf("%w: unknown algorithm %d", ErrBadEnvironment, e.Algorithm)
	}
	return nil
}

// ExpandOutput renders the OutputFile template for a job id.
func (e Environment) ExpandOutput(job uint64) string {
	return expand(e.OutputFile, job)
}

// ExpandError renders the ErrorFile template for a job id.
func (e Environment) ExpandError(job uint64) string {
	return expand(e.ErrorFile, job)
}

func expand(tmpl string, job uint64) string {
	return strings.ReplaceAll(tmpl, "%J", strconv.FormatUint(job, 10))
}

// Marshal renders the environment in its text form, as `shadow env` prints
// it.
func (e Environment) Marshal() []byte {
	kv := map[string]string{
		"user":         e.User,
		"default-host": e.DefaultHost,
		"editor":       e.Editor,
		"retain":       strconv.Itoa(e.RetainVersions),
		"algorithm":    e.Algorithm.String(),
		"compress":     strconv.FormatBool(e.Compress),
		"output-file":  e.OutputFile,
		"error-file":   e.ErrorFile,
		"output-delta": strconv.FormatBool(e.WantOutputDelta),
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("# shadow environment\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s\n", k, kv[k])
	}
	return []byte(sb.String())
}

// ParseAlgorithm maps an algorithm name to its identifier.
func ParseAlgorithm(name string) (diff.Algorithm, error) {
	switch strings.ToLower(name) {
	case "hunt-mcilroy", "hm", "diff":
		return diff.HuntMcIlroy, nil
	case "myers", "miller-myers":
		return diff.Myers, nil
	case "tichy", "block-move":
		return diff.TichyBlockMove, nil
	default:
		return 0, fmt.Errorf("%w: unknown algorithm %q", ErrBadEnvironment, name)
	}
}
