//go:build race

package xqeval_test

// raceEnabled is whether the race detector is on. It turns the tiny
// allocator off, so a byte guard needs a figure measured under it.
const raceEnabled = true
