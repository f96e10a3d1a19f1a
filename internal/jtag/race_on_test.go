//go:build race

package jtag

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
