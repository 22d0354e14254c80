//go:build race

package sim

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
