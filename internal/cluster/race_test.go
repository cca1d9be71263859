//go:build race

package cluster

// raceEnabled reports that the test binary was built with -race. The race
// runtime allocates on its own account, so the allocation pins keep their
// engagement checks under it and leave the counts to a build without it.
const raceEnabled = true
