//go:build race

package aggview_test

// raceEnabled reports that the race detector is on: allocation counts are
// not comparable, so TestExecAllocationCeilings only runs the statements.
const raceEnabled = true
