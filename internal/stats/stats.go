// Package stats provides the measurement plumbing the paper's experiments
// rely on: latency recorders with exact percentile extraction, the §2.2
// weighted write-amplification model, and small fixed-width tables for
// experiment reports. (Throughput-over-time views live in the workload
// package's Timeline, next to the completions that feed them.)
package stats

import (
	"math"

	"ssdtp/internal/sim"
)

// LatencyRecorder accumulates per-request latencies (simulated nanoseconds)
// and computes exact order statistics. Exactness matters here: the paper's
// Figure 3 argument is about the far tail, where histogram bucketing would
// blur precisely the signal under study.
//
// Samples append into a block-built Log, so recording never copies earlier
// samples. The first query after new samples flattens the log into one
// buffer and radix-sorts it in place; that sorted buffer stays the log's
// only block, so after a query the recorder holds its samples and the sort
// scratch, nothing more.
type LatencyRecorder struct {
	log     Log[sim.Time]
	scratch []sim.Time // radix-sort ping-pong buffer, reused across queries
	sorted  int        // the log is one sorted block while sorted == log.Len()
	sum     sim.Time
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{}
}

// Record adds one latency sample.
func (r *LatencyRecorder) Record(d sim.Time) {
	r.log.Append(d)
	r.sum += d
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return r.log.Len() }

// Mean returns the average latency, or 0 with no samples.
func (r *LatencyRecorder) Mean() float64 {
	if r.log.Len() == 0 {
		return 0
	}
	return float64(r.sum) / float64(r.log.Len())
}

// isSorted reports whether the memoized sort covers every sample.
func (r *LatencyRecorder) isSorted() bool { return r.sorted == r.log.Len() }

// sortedSamples returns every sample in ascending order, sorting only if
// samples arrived since the last query.
func (r *LatencyRecorder) sortedSamples() []sim.Time {
	s := r.log.flatten()
	if !r.isSorted() {
		r.scratch = radixSortTime(s, r.scratch)
		r.sorted = len(s)
	}
	return s
}

// Percentile returns the p-th percentile using the nearest-rank method.
// The domain is clamped: p <= 0 yields the minimum, p >= 100 the maximum,
// so out-of-range inputs degrade to the nearest order statistic instead of
// misindexing. NaN (which compares false against everything and would turn
// math.Ceil into an undefined int conversion) returns 0, as does an empty
// recorder.
func (r *LatencyRecorder) Percentile(p float64) sim.Time {
	if r.log.Len() == 0 || math.IsNaN(p) {
		return 0
	}
	if p > 100 {
		p = 100
	}
	s := r.sortedSamples()
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Max returns the largest sample, or 0 with none.
func (r *LatencyRecorder) Max() sim.Time {
	if r.log.Len() == 0 {
		return 0
	}
	s := r.sortedSamples()
	return s[len(s)-1]
}

// TopK returns the k largest samples in ascending order (fewer if the
// recorder holds fewer; empty for k <= 0). This is the "requests ordered
// by latency" series of the paper's Figure 3.
func (r *LatencyRecorder) TopK(k int) []sim.Time {
	s := r.sortedSamples()
	k = min(max(k, 0), len(s))
	out := make([]sim.Time, k)
	copy(out, s[len(s)-k:])
	return out
}

// Snapshot returns a sorted copy of all samples.
func (r *LatencyRecorder) Snapshot() []sim.Time {
	s := r.sortedSamples()
	out := make([]sim.Time, len(s))
	copy(out, s)
	return out
}

// Reset discards all samples.
func (r *LatencyRecorder) Reset() {
	r.log.Reset()
	r.sum = 0
	r.sorted = 0
}

// WeightedWAF combines per-workload WAFs weighted by each workload's IOPS,
// reproducing the (incorrect, as the paper shows) additive model of §2.2:
// "each sub-workload's WAF is weighted by the number of IOPS the
// sub-workload issues".
func WeightedWAF(wafs, iops []float64) float64 {
	if len(wafs) != len(iops) {
		panic("stats: WeightedWAF length mismatch")
	}
	var num, den float64
	for i := range wafs {
		num += wafs[i] * iops[i]
		den += iops[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}
