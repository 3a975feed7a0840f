//go:build race

package aqualogic

// raceEnabled is whether the race detector is on. It turns the tiny
// allocator off, so an allocation guard needs a figure measured under it.
const raceEnabled = true
