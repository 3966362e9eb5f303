//go:build !race

package bench

// raceEnabled reports a race-detector build. The golden migration tables
// run full-size experiments (every simulated number is pinned), which the
// race detector slows ~45×; they skip there, and the migrate package's own
// tests drive the same engine under -race.
const raceEnabled = false
