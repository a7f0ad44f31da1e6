//go:build !race

package hiway_test

// raceEnabled reports that the race detector is on; see budget_race_test.go.
const raceEnabled = false
