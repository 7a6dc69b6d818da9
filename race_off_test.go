//go:build !race

package shadow_test

const raceEnabled = false
