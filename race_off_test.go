//go:build !race

package aqualogic

// raceEnabled is whether the race detector is on (race_on_test.go).
const raceEnabled = false
