//go:build race

package shadow_test

// raceEnabled reports that the race detector is on. It slows the server's
// goroutines enough that a job's FILE_ACK often leaves before its OUTPUT is
// queued, so TestWarmCycleSyscalls bounds the server's writes more loosely.
const raceEnabled = true
