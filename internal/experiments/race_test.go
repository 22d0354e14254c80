//go:build race

package experiments

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
