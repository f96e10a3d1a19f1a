//go:build race

package ftl

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
