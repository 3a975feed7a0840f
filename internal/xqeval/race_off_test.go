//go:build !race

package xqeval_test

// raceEnabled is whether the race detector is on (race_on_test.go).
const raceEnabled = false
