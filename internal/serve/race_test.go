//go:build race

package serve

// raceEnabled reports that the race detector is active: it allocates
// on its own, so allocation-bound assertions do not hold there.
const raceEnabled = true
