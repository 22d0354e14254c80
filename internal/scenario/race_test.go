//go:build race

package scenario

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
