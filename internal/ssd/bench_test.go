package ssd

import (
	"testing"
)

// Request-path microbenchmarks: one steady-state 4 KiB host I/O through the
// whole stack (device → FTL → ONFI → engine drain), tracing off. These are
// the numbers the zero-allocation contract protects. CI gates their
// allocations (the ZeroAlloc tests); perfbench's drive-gc-write workload
// times the same path end to end (`make perf-diff`).

func BenchmarkWritePath(b *testing.B) {
	zaDevice(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zaWriteOne()
	}
}

func BenchmarkReadPath(b *testing.B) {
	zaDevice(nil)
	for i := 0; i < 200; i++ {
		zaReadOne()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zaReadOne()
	}
}
