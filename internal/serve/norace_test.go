//go:build !race

package serve

// raceEnabled reports that the race detector is active.
const raceEnabled = false
