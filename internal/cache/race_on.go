//go:build race

package cache

// raceEnabled turns on the assertions too costly for production builds:
// PutFromBase checks every derived manifest against a full split.
const raceEnabled = true
