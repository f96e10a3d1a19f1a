package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ssdtp/internal/sim"
)

func TestPercentileNearestRank(t *testing.T) {
	r := NewLatencyRecorder()
	for i := 1; i <= 100; i++ {
		r.Record(sim.Time(i))
	}
	cases := []struct {
		p    float64
		want sim.Time
	}{
		{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1},
	}
	for _, c := range cases {
		if got := r.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %d, want %d", c.p, got, c.want)
		}
	}
}

// The clamped percentile domain: p <= 0 degrades to the minimum, p >= 100
// to the maximum, and NaN — which would otherwise flow through math.Ceil
// into an undefined float-to-int conversion — returns 0.
func TestPercentileDomainClamped(t *testing.T) {
	r := NewLatencyRecorder()
	for i := 1; i <= 10; i++ {
		r.Record(sim.Time(i * 100))
	}
	cases := []struct {
		name string
		p    float64
		want sim.Time
	}{
		{"p=0", 0, 100},
		{"negative", -37, 100},
		{"-Inf", math.Inf(-1), 100},
		{"p>100", 250, 1000},
		{"+Inf", math.Inf(1), 1000},
	}
	for _, c := range cases {
		if got := r.Percentile(c.p); got != c.want {
			t.Errorf("%s: Percentile(%v) = %d, want %d", c.name, c.p, got, c.want)
		}
	}
	if got := r.Percentile(math.NaN()); got != 0 {
		t.Errorf("Percentile(NaN) = %d, want 0", got)
	}
	empty := NewLatencyRecorder()
	if got := empty.Percentile(math.NaN()); got != 0 {
		t.Errorf("empty Percentile(NaN) = %d, want 0", got)
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := NewLatencyRecorder()
	if r.Percentile(99) != 0 || r.Mean() != 0 || r.Max() != 0 || r.Percentile(0) != 0 {
		t.Error("empty recorder should return zeros")
	}
}

func TestMeanMinMax(t *testing.T) {
	r := NewLatencyRecorder()
	for _, v := range []sim.Time{10, 20, 30} {
		r.Record(v)
	}
	if r.Mean() != 20 {
		t.Errorf("Mean = %v, want 20", r.Mean())
	}
	if r.Percentile(0) != 10 || r.Max() != 30 {
		t.Errorf("Min/Max = %d/%d", r.Percentile(0), r.Max())
	}
	if r.Count() != 3 {
		t.Errorf("Count = %d", r.Count())
	}
}

func TestTopK(t *testing.T) {
	r := NewLatencyRecorder()
	for _, v := range []sim.Time{5, 1, 9, 3, 7} {
		r.Record(v)
	}
	got := r.TopK(3)
	want := []sim.Time{5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", got, want)
		}
	}
	if n := len(r.TopK(99)); n != 5 {
		t.Errorf("TopK(99) len = %d, want 5", n)
	}
}

// Regression: a computed k below zero (e.g. a percentage of an empty
// recorder minus a floor) must yield an empty slice, not a panic from
// make([]sim.Time, k).
func TestTopKNonPositiveK(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(5)
	for _, k := range []int{-1, -100, 0} {
		if got := r.TopK(k); len(got) != 0 {
			t.Errorf("TopK(%d) = %v, want empty", k, got)
		}
	}
	empty := NewLatencyRecorder()
	if got := empty.TopK(-3); len(got) != 0 {
		t.Errorf("empty TopK(-3) = %v, want empty", got)
	}
}

func TestReset(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(5)
	r.Reset()
	if r.Count() != 0 || r.Mean() != 0 {
		t.Error("Reset did not clear recorder")
	}
}

// Property: percentile is monotone in p and bounded by [Min, Max].
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewLatencyRecorder()
		n := rng.Intn(200) + 1
		for i := 0; i < n; i++ {
			r.Record(sim.Time(rng.Int63n(1e9)))
		}
		prev := sim.Time(0)
		for p := 1.0; p <= 100; p++ {
			v := r.Percentile(p)
			if v < prev || v < r.Percentile(0) || v > r.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Snapshot is sorted and preserves multiset size.
func TestSnapshotSortedProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		r := NewLatencyRecorder()
		for _, v := range vals {
			r.Record(sim.Time(v))
		}
		s := r.Snapshot()
		return len(s) == len(vals) && sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Add(500 * sim.Nanosecond)  // bucket 0
	h.Add(3 * sim.Microsecond)   // 3µs -> bucket 2
	h.Add(100 * sim.Millisecond) // deep bucket
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
	if !strings.Contains(h.String(), "µs") {
		t.Error("histogram rendering missing unit")
	}
}

// The first bucket covers [0..1µs) — sub-microsecond samples get an honest
// lower bound of zero, not a phantom 1µs floor.
func TestHistogramSubMicrosecondLabel(t *testing.T) {
	var h Histogram
	h.Add(500 * sim.Nanosecond)
	h.Add(0)
	s := h.String()
	if !strings.Contains(s, "[     0µs..     1µs): 2") {
		t.Errorf("sub-µs bucket label wrong:\n%s", s)
	}
}

// Regression: Add clamps every sample at or above 2^38µs into the final
// bucket, so String must render it as open-ended rather than the bounded
// [2^38..2^39) range it used to claim.
func TestHistogramOverflowBucketOpenEnded(t *testing.T) {
	var h Histogram
	top := sim.Time(1) << 38 * sim.Microsecond // exactly the last bucket's lower bound
	h.Add(top)
	h.Add(math.MaxInt64) // far past any bounded bucket
	s := h.String()
	want := fmt.Sprintf("[%6dµs..  +inf): 2\n", int64(1)<<38)
	if s != want {
		t.Errorf("overflow bucket rendering:\ngot:  %q\nwant: %q", s, want)
	}
	if strings.Contains(s, fmt.Sprintf("%dµs)", int64(1)<<39)) {
		t.Errorf("overflow bucket still claims a bounded upper edge:\n%s", s)
	}
}

func TestWAF(t *testing.T) {
	if got := WAF(150, 100); got != 1.5 {
		t.Errorf("WAF = %v", got)
	}
	if WAF(10, 0) != 0 {
		t.Error("WAF with zero host bytes should be 0")
	}
}

func TestWeightedWAF(t *testing.T) {
	// Paper §2.2: per-workload WAFs weighted by IOPS.
	got := WeightedWAF([]float64{0.5, 1.0}, []float64{3, 1})
	want := (0.5*3 + 1.0*1) / 4
	if got != want {
		t.Errorf("WeightedWAF = %v, want %v", got, want)
	}
	if WeightedWAF(nil, nil) != 0 {
		t.Error("empty WeightedWAF should be 0")
	}
}

func TestWeightedWAFMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	WeightedWAF([]float64{1}, []float64{1, 2})
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("scheme", "ratio")
	tb.AddRow("compact", 2.56)
	tb.AddRow("chunk4", 1.2)
	s := tb.String()
	if !strings.Contains(s, "compact") || !strings.Contains(s, "2.560") {
		t.Errorf("table missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), s)
	}
}

// TestLatencyRecorderSortMemoization pins the sorted-state memo: queries
// after a sort must not re-sort until a new sample invalidates it, and the
// memo must never change query results.
func TestLatencyRecorderSortMemoization(t *testing.T) {
	r := NewLatencyRecorder()
	for _, v := range []sim.Time{300, 100, 200} {
		r.Record(v)
	}
	if r.sorted {
		t.Fatal("recorder claims sorted before any query")
	}
	if got := r.Percentile(50); got != 200 {
		t.Fatalf("Percentile(50) = %d, want 200", got)
	}
	if !r.sorted {
		t.Fatal("query did not memoize the sorted state")
	}
	// A memoized query must see the same data without invalidation.
	if got := r.Percentile(0); got != 100 {
		t.Fatalf("Percentile(0) = %d, want 100", got)
	}
	if !r.sorted {
		t.Fatal("read-only query dropped the sort memo")
	}
	r.Record(50)
	if r.sorted {
		t.Fatal("Record did not invalidate the sort memo")
	}
	if got := r.Percentile(0); got != 50 {
		t.Fatalf("Percentile(0) after Record = %d, want 50", got)
	}
	if got := r.Max(); got != 300 {
		t.Fatalf("Max = %d, want 300", got)
	}
	// Snapshot must return a copy, not alias recorder state.
	snap := r.Snapshot()
	snap[0] = 999999
	if got := r.Percentile(0); got != 50 {
		t.Fatalf("mutating Snapshot() result changed recorder state: Percentile(0) = %d", got)
	}
}
