//go:build race

package onfi

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
