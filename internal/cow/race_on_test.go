//go:build race

package cow

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
