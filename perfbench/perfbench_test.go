package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"ssdtp/internal/ftl"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "workload.complete", start: 0, end: 100, parent: -1},
		{name: "ssd.submit", start: 10, end: 30, parent: 0},
		{name: "ssd.submit", start: 40, end: 50, parent: 0},
		{name: "ssd.submit", start: 200, end: 205, parent: -1},
	}
	self, n := selfTimes(spans)
	if self["workload.complete"] != 70 || self["ssd.submit"] != 35 {
		t.Errorf("self times %v, want workload.complete 70 and ssd.submit 35", self)
	}
	if n["workload.complete"] != 1 || n["ssd.submit"] != 3 {
		t.Errorf("span counts %v, want 1 and 3", n)
	}
}

func TestLedgerNestsSpans(t *testing.T) {
	l := newLedger()
	outer := l.begin("workload.complete", 1)
	inner := l.begin("ssd.submit", 2)
	l.end(inner)
	l.end(outer)
	if l.spans[outer].parent != -1 || l.spans[inner].parent != outer {
		t.Errorf("parents %d and %d, want -1 and %d", l.spans[outer].parent, l.spans[inner].parent, outer)
	}
	if len(l.open) != 0 {
		t.Errorf("%d spans left open", len(l.open))
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if m := median(xs); m != 5.5 {
		t.Errorf("median %v, want 5.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median %v, want 2", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{5, 4, 3, 2, 1}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles %v %v, want 1.5 4.5", q1, q3)
	}
	if s := spread(xs); s != 1 {
		t.Errorf("spread %v, want 1", s)
	}
	// numpy.quantile(range(1, 11), [0, 0.1, 0.25, 1]) == [1, 1.9, 3.25, 10]
	for q, want := range map[float64]float64{0: 1, 0.1: 1.9, 0.25: 3.25, 1: 10} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile %v = %v, want %v", q, got, want)
		}
	}
}

func TestWallTimeIsTheCalibratedMedian(t *testing.T) {
	// Host time doubles with the kernel's time in the last two reps, as under
	// contention, so their calibrated times equal the first reps'.
	ss := []sample{
		{parts: []float64{0.06, 0.04}, cal: calSeconds},
		{parts: []float64{0.12}, cal: calSeconds},
		{parts: []float64{0.2}, cal: 2 * calSeconds},
		{parts: []float64{0.24}, cal: 2 * calSeconds},
	}
	if got := wallTime(ss); math.Abs(got-0.11) > 1e-12 {
		t.Errorf("wall time %v, want 0.11", got)
	}
	if got := wallTime(nil); got != 0 {
		t.Errorf("wall time of no reps %v, want 0", got)
	}
}

func TestKernelAllocatesNothing(t *testing.T) {
	if err := initKernel(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, runKernel); n != 0 {
		t.Errorf("the calibration kernel allocates %v times a run", n)
	}
}

func TestGlueClosesTheLedger(t *testing.T) {
	terms := []term{{"sim", 20, 8}, {"ftl", 150, 1}, {"nand", 30, 0.25}}
	const e2e = 500.0
	g := glue(e2e, terms)
	if g != 182.5 {
		t.Errorf("glue %v, want 182.5", g)
	}
	total := g
	for _, tm := range terms {
		total += tm.costNS * tm.perReq
	}
	if math.Abs(total-e2e) > 1e-9 {
		t.Errorf("terms plus glue %v, want %v", total, e2e)
	}
}

// smallDrive is the unscaled fig3 baseline drive under a short load, so that
// a rep takes milliseconds.
func smallDrive(seed int64, readFrac float64) *driveBench {
	cfg := ssd.MQSimBase()
	cfg.FTL.Seed = seed
	return &driveBench{cfg: cfg, dur: 20 * sim.Millisecond, spec: workload.Spec{
		Pattern: workload.Uniform, RequestBytes: 4096, QueueDepth: 8, ReadFrac: readFrac, Seed: seed}}
}

func TestRepsOfOneSeedAgree(t *testing.T) {
	for _, readFrac := range []float64{0, 1} {
		var fps []string
		for _, seed := range []int64{42, 42, 7} {
			d := smallDrive(seed, readFrac)
			if err := d.setup(nil); err != nil {
				t.Fatal(err)
			}
			_, a, err := runRep(d, modeCount, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, b, err := runRep(d, modeTimed, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.fp != b.fp {
				t.Fatalf("read fraction %v seed %d: two reps differ:\n  %s\n  %s", readFrac, seed, a.fp, b.fp)
			}
			if a.reqs == 0 || a.events == 0 {
				t.Fatalf("read fraction %v seed %d: %d requests, %d events", readFrac, seed, a.reqs, a.events)
			}
			fps = append(fps, a.fp)
		}
		if fps[0] != fps[1] {
			t.Errorf("read fraction %v: two set-ups with one seed simulate different outputs", readFrac)
		}
		if fps[0] == fps[2] {
			t.Errorf("read fraction %v: seeds 42 and 7 simulate the same outputs", readFrac)
		}
	}
}

func TestFakeFlashCompletesEveryRequest(t *testing.T) {
	cfg := ssd.MQSimBase()
	eng := sim.NewEngine()
	ff := newFakeFlash(eng, cfg)
	f := ftl.New(eng, ff, ftlConfig(cfg))
	x := lcg(7)
	n := f.LogicalSectors()
	const writes, reads = 20000, 5000
	if err := closedLoop(eng, writes, 8, func(_ int, done func()) error { return f.Write(x.below(n), 1, done) }); err != nil {
		t.Fatal(err)
	}
	if err := closedLoop(eng, reads, 32, func(_ int, done func()) error { return f.Read(x.below(n), 1, done) }); err != nil {
		t.Fatal(err)
	}
	flushed := false
	f.Flush(func() { flushed = true })
	eng.RunWhile(func() bool { return !flushed })
	if !flushed {
		t.Fatal("flush never completed")
	}
	if ff.issued == 0 || ff.completed != ff.issued {
		t.Errorf("fake flash completed %d of %d operations", ff.completed, ff.issued)
	}
	if c := f.Counters(); c.HostWriteRequests != writes || c.HostReadRequests != reads {
		t.Errorf("FTL took %d writes and %d reads, want %d and %d", c.HostWriteRequests, c.HostReadRequests, writes, reads)
	}
}

func TestFoldTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Duration: 5.01s, Total samples = 4s (79.8%)
Showing nodes accounting for 4s, 100% of 4s total
      flat  flat%   sum%        cum   cum%
     1.50s 37.50% 37.50%      2.00s 50.00%  ssdtp/internal/sim.(*Engine).Step
        1s 25.00% 62.50%         1s 25.00%  ssdtp/internal/ftl.(*FTL).Write
     500ms 12.50% 75.00%      500ms 12.50%  runtime.mallocgc
     500ms 12.50% 87.50%      500ms 12.50%  ssdtp/internal/sim.(*Engine).push
     500ms 12.50%   100%      500ms 12.50%  main.(*ledger).hook
         0     0%   100%      1.50s 37.50%  ssdtp/internal/workload.RunMulti
`
	got := foldTop(top)
	want := map[string]float64{"sim": 0.5, "ftl": 0.25, "runtime": 0.125, "main": 0.125, "workload": 0}
	if len(got) != len(want) {
		t.Fatalf("folded %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s share %v, want %v", k, got[k], v)
		}
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's workloads and metric
// lists to what the benchmark runs and reports, and checks that layers.json
// maps every per-layer metric.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &b)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, b.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d is %s (%s) in BENCHMARK.json, %s (%s) here", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, layerMetrics)

	var layers struct {
		LayerMap map[string]json.RawMessage `json:"layer_map"`
	}
	readJSON(t, "layers.json", &layers)
	for _, d := range layerMetrics {
		key := d.name
		if strings.HasPrefix(key, "experiments.") {
			key = "experiments.*"
		}
		if _, ok := layers.LayerMap[key]; !ok {
			t.Errorf("layers.json does not map %s", key)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
