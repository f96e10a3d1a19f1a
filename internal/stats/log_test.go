package stats

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"ssdtp/internal/sim"
)

// blockEdges are sample counts on and around every block boundary of a Log:
// the first block, the second, the largest block size, and many blocks.
var blockEdges = []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 100_000}

// checkAgainstSort compares every query of r with the same statistic taken
// from want, a plain sort.Slice over all of r's samples.
func checkAgainstSort(t *testing.T, r *LatencyRecorder, want []sim.Time, label string) {
	t.Helper()
	want = append([]sim.Time(nil), want...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	n := len(want)
	if r.Count() != n {
		t.Fatalf("%s: Count = %d, want %d", label, r.Count(), n)
	}
	var sum sim.Time
	for _, v := range want {
		sum += v
	}
	wantMean := 0.0
	if n > 0 {
		wantMean = float64(sum) / float64(n)
	}
	if r.Mean() != wantMean {
		t.Fatalf("%s: Mean = %v, want %v", label, r.Mean(), wantMean)
	}
	for _, p := range []float64{-1, 0, 0.1, 1, 25, 50, 90, 95, 99, 99.9, 99.99, 100, 101} {
		var w sim.Time
		if n > 0 {
			rank := int(math.Ceil(p / 100 * float64(n)))
			w = want[min(max(rank, 1), n)-1]
		}
		if got := r.Percentile(p); got != w {
			t.Fatalf("%s: Percentile(%v) = %d, want %d", label, p, got, w)
		}
	}
	wantMax := sim.Time(0)
	if n > 0 {
		wantMax = want[n-1]
	}
	if got := r.Max(); got != wantMax {
		t.Fatalf("%s: Max = %d, want %d", label, got, wantMax)
	}
	for _, k := range []int{-1, 0, 1, 10, n / 2, n, n + 1} {
		got := r.TopK(k)
		w := want[n-min(max(k, 0), n):]
		if len(got) != len(w) {
			t.Fatalf("%s: TopK(%d) has %d samples, want %d", label, k, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s: TopK(%d)[%d] = %d, want %d", label, k, i, got[i], w[i])
			}
		}
	}
	snap := r.Snapshot()
	if len(snap) != n {
		t.Fatalf("%s: Snapshot has %d samples, want %d", label, len(snap), n)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("%s: Snapshot[%d] = %d, want %d", label, i, snap[i], want[i])
		}
	}
}

// TestLatencyRecorderMatchesSort is the block recorder's reference test: at
// sample counts around every block boundary, with Record, queries and Reset
// interleaved, each query equals the same statistic over a sort.Slice of
// every sample recorded since the last Reset.
func TestLatencyRecorderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sample := func() sim.Time {
		if rng.Intn(8) == 0 {
			return sim.Time(rng.Intn(16)) // duplicates
		}
		return sim.Time(rng.Int63n(int64(sim.Second)))
	}
	for _, n := range blockEdges {
		r := NewLatencyRecorder()
		var all []sim.Time
		record := func(k int) {
			for i := 0; i < k; i++ {
				v := sample()
				r.Record(v)
				all = append(all, v)
			}
		}
		// Query part-way, so later samples land in blocks beside the
		// flattened, sorted buffer of the first ones.
		record(n / 3)
		checkAgainstSort(t, r, all, "first third")
		record(n - n/3)
		checkAgainstSort(t, r, all, "all")
		checkAgainstSort(t, r, all, "all, memoized")
		r.Reset()
		all = all[:0]
		checkAgainstSort(t, r, all, "after Reset")
		record(n)
		checkAgainstSort(t, r, all, "refilled after Reset")
		record(1)
		checkAgainstSort(t, r, all, "one more")
	}
}

// TestLogBlocksInOrder pins Log's traversal: EachBlock visits every value
// once, in append order, at every block boundary and after Reset.
func TestLogBlocksInOrder(t *testing.T) {
	type row struct{ a, b int64 }
	for _, n := range blockEdges {
		var l Log[row]
		for round := 0; round < 2; round++ {
			for i := 0; i < n; i++ {
				l.Append(row{int64(i), -int64(i)})
			}
			if l.Len() != n {
				t.Fatalf("n=%d: Len = %d", n, l.Len())
			}
			i := 0
			l.EachBlock(func(b []row) {
				if len(b) == 0 || len(b) > maxBlock {
					t.Fatalf("n=%d: block of %d values", n, len(b))
				}
				for _, v := range b {
					if v != (row{int64(i), -int64(i)}) {
						t.Fatalf("n=%d: value %d is %v", n, i, v)
					}
					i++
				}
			})
			if i != n {
				t.Fatalf("n=%d: EachBlock visited %d values", n, i)
			}
			l.Reset()
		}
	}
}

// zaRec is package-level so the measured functions capture nothing.
var zaRec *LatencyRecorder

func zaRecord() { zaRec.Record(5) }

// TestLatencyRecorderZeroAlloc pins the recorder's allocation contract:
// Record into a block with room allocates nothing, both in the first block
// and at steady state among the largest blocks, and recording N samples
// allocates at most 8·N bytes plus one block, where one growing slice would
// allocate about five times the samples.
func TestLatencyRecorderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	zaRec = NewLatencyRecorder()
	zaRec.Record(1) // allocates the first block
	if n := testing.AllocsPerRun(firstBlock-2, zaRecord); n != 0 {
		t.Fatalf("Record in the first block: %v allocations, want 0", n)
	}
	// Fill every block up to the first of the largest size, plus one sample.
	for zaRec.Count() < 2*maxBlock-firstBlock+1 {
		zaRec.Record(1)
	}
	if n := testing.AllocsPerRun(maxBlock-2, zaRecord); n != 0 {
		t.Fatalf("Record in a %d-sample block: %v allocations, want 0", maxBlock, n)
	}

	const samples = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewLatencyRecorder()
	for i := 0; i < samples; i++ {
		r.Record(sim.Time(i))
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*samples+8*maxBlock); got > limit {
		t.Fatalf("recording %d samples allocated %d bytes, want at most %d (8 per sample plus one block)",
			samples, got, limit)
	}
}
