package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ssdtp/internal/sim"
)

// The radix sort must agree with the comparison sort it replaced on every
// input shape: random, sorted, reversed, heavy duplicates, negatives, and
// extreme magnitudes (the sign-bit bias on the top digit).
func TestRadixSortMatchesSortSlice(t *testing.T) {
	cases := [][]int64{
		nil,
		{},
		{5},
		{3, 1, 2},
		{0, 0, 0, 0},
		{math.MaxInt64, math.MinInt64, -1, 0, 1},
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{63, 64, 65, 1000, 4096} { // straddle the insertion-sort cutoff
		random := make([]int64, n)
		dups := make([]int64, n)
		sorted := make([]int64, n)
		reversed := make([]int64, n)
		mixed := make([]int64, n)
		for i := range random {
			random[i] = rng.Int63()
			dups[i] = int64(rng.Intn(4))
			sorted[i] = int64(i)
			reversed[i] = int64(n - i)
			mixed[i] = rng.Int63n(1<<40) - 1<<39 // negatives exercise the biased pass
		}
		cases = append(cases, random, dups, sorted, reversed, mixed)
	}
	var scratch []int64
	for ci, c := range cases {
		got := append([]int64(nil), c...)
		want := append([]int64(nil), c...)
		scratch = radixSortTime(got, scratch)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d (len %d): radix[%d] = %d, want %d", ci, len(c), i, got[i], want[i])
			}
		}
	}
}

func TestRadixSortProperty(t *testing.T) {
	f := func(a []int64) bool {
		got := append([]int64(nil), a...)
		radixSortTime(got, nil)
		want := append([]int64(nil), a...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The recorder's query results must be unchanged by the sort swap, including
// after interleaved Record/query cycles that resort a partially sorted set.
func TestRecorderRadixEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := NewLatencyRecorder()
	var all []int64
	for round := 0; round < 5; round++ {
		for i := 0; i < 500; i++ {
			v := rng.Int63n(int64(50 * sim.Millisecond))
			r.Record(v)
			all = append(all, v)
		}
		want := append([]int64(nil), all...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, p := range []float64{0, 1, 50, 99, 99.9, 100} {
			rank := int(math.Ceil(p / 100 * float64(len(want))))
			if rank < 1 {
				rank = 1
			}
			if got := r.Percentile(p); got != want[rank-1] {
				t.Fatalf("round %d: Percentile(%v) = %d, want %d", round, p, got, want[rank-1])
			}
		}
		if r.Percentile(0) != want[0] || r.Max() != want[len(want)-1] {
			t.Fatalf("round %d: Min/Max = %d/%d, want %d/%d", round, r.Percentile(0), r.Max(), want[0], want[len(want)-1])
		}
	}
}

// BenchmarkRecorderPercentile measures the sort-dominated percentile query
// on a freshly dirtied recorder, the per-cell cost of every figure's table.
func BenchmarkRecorderPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]int64, 200000)
	for i := range samples {
		samples[i] = rng.Int63n(int64(50 * sim.Millisecond))
	}
	r := NewLatencyRecorder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r.Reset()
		for _, s := range samples {
			r.Record(s)
		}
		b.StartTimer()
		r.Percentile(99)
	}
}
