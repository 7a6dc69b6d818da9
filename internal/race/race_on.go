//go:build race

// Package race reports a race-detector build, which also runs the
// assertions too costly for production: a derived chunk manifest checked
// against a full split, a recorded checksum against the bytes.
package race

const Enabled = true
