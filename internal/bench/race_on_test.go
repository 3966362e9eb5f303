//go:build race

package bench

// raceEnabled under the race detector: see race_off_test.go.
const raceEnabled = true
