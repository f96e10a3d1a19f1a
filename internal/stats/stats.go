// Package stats provides the measurement plumbing the paper's experiments
// rely on: latency recorders with exact percentile extraction, log-scaled
// histograms, write-amplification arithmetic, and small fixed-width tables
// for experiment reports. (Throughput-over-time views live in the workload
// package's Timeline, next to the completions that feed them.)
package stats

import (
	"fmt"
	"math"
	"math/bits"

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

// Histogram is a logarithmically bucketed latency histogram (powers of two
// from 1 µs), suitable for compact printing of long-tailed distributions.
type Histogram struct {
	buckets [40]int64
	count   int64
}

// Add records one sample. The bucket index is the bit length of the sample
// in microseconds (bucket b >= 1 covers [2^(b-1), 2^b) µs; bucket 0 is
// sub-microsecond), computed with a single bits.Len64 instead of a shift
// loop; the top bucket clamps everything beyond the table.
func (h *Histogram) Add(d sim.Time) {
	b := 0
	if v := d / sim.Microsecond; v > 0 {
		b = bits.Len64(uint64(v))
		if b > len(h.buckets)-1 {
			b = len(h.buckets) - 1
		}
	}
	h.buckets[b]++
	h.count++
}

// Count returns the total number of samples.
func (h *Histogram) Count() int64 { return h.count }

// String renders non-empty buckets as "[lo..hi)µs: n" lines. The first
// bucket is [0..1µs) (sub-microsecond samples land there), and the last is
// open-ended: Add clamps everything at or above its lower bound into it, so
// an honest label is "[lo..  +inf)", not a bounded range.
func (h *Histogram) String() string {
	out := ""
	lo := int64(0)
	for b, n := range h.buckets {
		hi := int64(1) << uint(b)
		if n > 0 {
			if b == len(h.buckets)-1 {
				out += fmt.Sprintf("[%6dµs..  +inf): %d\n", lo, n)
			} else {
				out += fmt.Sprintf("[%6dµs..%6dµs): %d\n", lo, hi, n)
			}
		}
		lo = hi
	}
	return out
}

// WAF computes a write-amplification factor as the ratio of NAND bytes to
// host bytes. It returns 0 when hostBytes is 0.
func WAF(nandBytes, hostBytes int64) float64 {
	if hostBytes == 0 {
		return 0
	}
	return float64(nandBytes) / float64(hostBytes)
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
