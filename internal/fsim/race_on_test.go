//go:build race

package fsim

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
