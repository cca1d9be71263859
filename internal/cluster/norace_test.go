//go:build !race

package cluster

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
