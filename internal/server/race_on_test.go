//go:build race

package server

// raceEnabled shortens the soak test under the race detector, which slows a
// cycle about tenfold, and skips the allocation guard, whose numbers it skews.
const raceEnabled = true
