//go:build !race

package jtag

// raceEnabled reports whether the race detector instruments this build; the
// allocation-count tests skip under it (instrumentation perturbs the
// allocator accounting testing.AllocsPerRun relies on).
const raceEnabled = false
