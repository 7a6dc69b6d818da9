//go:build race

package main

// raceEnabled reports that the race detector is on, under which the smoke
// run is several times slower and its time limit does not apply.
const raceEnabled = true
