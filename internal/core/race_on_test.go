//go:build race

package core

// raceEnabled reports that the race detector is on: allocation counts are
// not comparable, so TestOptimizeAllocationCeilings only runs the calls.
const raceEnabled = true
