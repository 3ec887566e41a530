//go:build !race

package aggview_test

const raceEnabled = false
