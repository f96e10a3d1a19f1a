package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

// mode selects what a rep carries besides the simulation itself.
type mode int

const (
	// modeTimed carries nothing: no hooks, no wrappers. Every end-to-end
	// timing comes from these reps.
	modeTimed mode = iota
	// modeCount installs hooks that count fired engine events (and, on
	// paper-quick, runner cells and the observer's per-cell metrics). Only
	// the warm-up rep, whose time is discarded, runs in it.
	modeCount
	// modeTraced wraps each layer's public calls in benchmark-side spans
	// for the per-layer ledger.
	modeTraced
)

// outcome is what one rep simulated.
type outcome struct {
	fp     string  // every simulated output; equal across reps of one seed
	reqs   int64   // simulated host requests completed
	cells  int64   // runner cells completed; a single-simulation rep is one
	units  int64   // what alloc_b_per_req divides by: requests, or cells on paper-quick
	simNS  float64 // simulated drive-nanoseconds
	events int64   // engine events fired, counted in modeCount
	// counts are exact per-layer counts for the ledger, keyed by metric name.
	counts map[string]float64
	keep   any // rep state kept reachable until its live heap is read
}

// sample is one timed rep's host-side cost.
type sample struct {
	parts []float64 // seconds inside each timed region, in the rep's order
	cal   float64   // seconds of the reference kernel around the rep
	alloc float64   // heap bytes allocated inside the timed regions
	live  float64   // live heap bytes after a forced GC, rep state reachable
}

// wall is the rep's seconds inside its timed regions.
func (s sample) wall() float64 { return sum(s.parts) }

// calWall is the rep's calibrated seconds inside its timed regions.
func (s sample) calWall() float64 { return calibrated(s.wall(), s.cal) }

var heapMetrics = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}

// heap returns the bytes allocated so far and the live heap as of the last GC.
func heap() (allocs, live uint64) {
	metrics.Read(heapMetrics)
	return heapMetrics[0].Value.Uint64(), heapMetrics[1].Value.Uint64()
}

// runRep runs one rep. Only the work the rep hands to timed is timed. A
// forced GC with the rep's state still reachable gives its live heap; a
// second one after release leaves the next rep a clean heap. A panic inside
// the rep becomes its error.
func runRep(b bench, m mode, l *ledger) (s sample, o outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rep panicked: %v", r)
		}
	}()
	o, err = b.rep(m, l, func(work func()) {
		a0, _ := heap()
		t0 := time.Now()
		work()
		s.parts = append(s.parts, time.Since(t0).Seconds())
		a1, _ := heap()
		s.alloc += float64(a1 - a0)
	})
	if err == nil && len(s.parts) == 0 {
		err = errors.New("rep timed no work")
	}
	runtime.GC()
	_, live := heap()
	s.live = float64(live)
	runtime.KeepAlive(o.keep)
	o.keep = nil
	runtime.GC()
	return s, o, err
}

// timedSetup builds the workload's set-up once and returns the build time
// in seconds.
func timedSetup(b bench, l *ledger) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	if err := b.setup(l); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	t := time.Since(t0).Seconds()
	runtime.GC()
	return t, nil
}

// run is one process's reps: a warm-up rep whose outcome is the reference,
// then phases of timed reps checked against it.
type run struct {
	b         bench
	ref       outcome
	attempted int
	failed    int
	setupS    []float64 // every timed set-up build, calibrated s
	cal       float64   // the latest reference kernel's seconds
}

// calibrate runs the reference kernel and returns its mean time over this
// run and the one before: the kernel's time around what ran between them.
func (r *run) calibrate() float64 {
	prev := r.cal
	r.cal = kernelTime()
	return (prev + r.cal) / 2
}

// build builds the set-up once and records its calibrated time.
func (r *run) build(l *ledger) error {
	t, err := timedSetup(r.b, l)
	if err != nil {
		return err
	}
	t = calibrated(t, r.calibrate())
	r.setupS = append(r.setupS, t)
	return nil
}

// warmUp times the first set-up build, then runs the warm-up rep in
// modeCount. The rep's time is discarded; its outcome is the reference
// every later rep must reproduce, and it carries the counted events. A
// warm-up rep that fails its own check fails the run.
func warmUp(b bench, l *ledger) (*run, error) {
	if err := initKernel(); err != nil {
		return nil, err
	}
	r := &run{b: b, attempted: 1, cal: kernelTime()}
	if err := r.build(l); err != nil {
		return nil, err
	}
	_, o, err := runRep(b, modeCount, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up rep: %w", err)
	}
	r.ref = o
	return r, nil
}

// minReps is the fewest timed reps a phase takes, however long they are.
const minReps = 3

// reps runs timed reps in mode m until seconds have passed and at least
// minReps ran, and returns the samples of those that passed. A rep fails
// when it panics, stalls, fails its own check, or simulates anything
// differently from the warm-up rep.
//
// The reference kernel runs before the first rep and after every rep and
// build, and each is calibrated by the kernel runs on either side of it.
//
// It also rebuilds the set-up until setups builds are timed, spread evenly
// over the phase, so that the median build samples the same stretch of host
// conditions as the reps rather than its first seconds alone. Build time
// does not count against seconds.
func (r *run) reps(m mode, l *ledger, seconds float64, setups int) ([]sample, error) {
	var out []sample
	r.cal = kernelTime()
	start := time.Now()
	build := func() error {
		t0 := time.Now()
		err := r.build(nil)
		start = start.Add(time.Since(t0))
		return err
	}
	for n := 0; n < minReps || time.Since(start).Seconds() < seconds; n++ {
		if k := len(r.setupS); k < setups && time.Since(start).Seconds() >= float64(k)*seconds/float64(setups) {
			if err := build(); err != nil {
				return nil, err
			}
		}
		r.attempted++
		s, o, err := runRep(r.b, m, l)
		s.cal = r.calibrate()
		if err == nil && o.fp != r.ref.fp {
			err = fmt.Errorf("fingerprint differs from the warm-up rep's:\n  got  %s\n  want %s", o.fp, r.ref.fp)
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: rep %d failed: %v\n", r.attempted, err)
			continue
		}
		out = append(out, s)
	}
	for len(r.setupS) < setups {
		if err := build(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

//go:embed pinned.json
var pinnedJSON []byte

// checkPinned compares the warm-up rep's fingerprint with the one pinned.json
// holds for this workload and seed, if any, and fails the warm-up rep on a
// mismatch. The fingerprint's hash is always printed, so that a deliberate
// change of simulated behaviour can be pinned again.
func (r *run) checkPinned(workload string, seed int64) {
	sum := sha256.Sum256([]byte(r.ref.fp))
	got := hex.EncodeToString(sum[:])
	fmt.Fprintf(os.Stderr, "perfbench: fingerprint %s seed %d sha256 %s\n", workload, seed, got)
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: pinned.json: %v\n", err)
		return
	}
	if want, ok := pins[workload][strconv.FormatInt(seed, 10)]; ok && want != got {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: fingerprint differs from pinned.json (sha256 %s):\n  %s\n", want, r.ref.fp)
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what -trace 0 reports, in BENCHMARK.json's order.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"req_per_s", "1/s"},
	{"events_per_s", "1/s"},
	{"drive_s_per_s", "s/s"},
	{"cells_per_s", "1/s"},
	{"heap_live_mb", "MB"},
	{"alloc_b_per_req", "B"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report renders values for every metric of defs (0 where absent).
func (r *run) report(defs []metricDef, values map[string]float64) report {
	rp := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rp.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return rp
}

// wallTime is the time of one rep as reported: the median of the reps'
// calibrated times.
func wallTime(ss []sample) float64 { return median(field(ss, sample.calWall)) }

// runEndToEnd is the untraced run: the warm-up rep, then timed reps for
// seconds with setupReps set-up builds among them. setup_s is the median
// calibrated build; wall_s is wallTime, and the rates divide each rep's exact
// simulated counts by it.
func runEndToEnd(w workloadSpec, seed int64, seconds float64) (report, error) {
	r, err := warmUp(w.make(seed), nil)
	if err != nil {
		return report{}, err
	}
	r.checkPinned(w.name, seed)
	ss, err := r.reps(modeTimed, nil, seconds, w.setupReps)
	if err != nil {
		return report{}, err
	}
	setupS := median(r.setupS)
	wall := wallTime(ss)
	o := r.ref
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d timed reps, calibrated rep time %.4f s (spread %.4f; host median %.4f s, spread %.4f; kernel median %.4f s), set-up %.4f s\n",
		w.name, seed, len(ss), wall, spread(field(ss, sample.calWall)), median(walls(ss)), spread(walls(ss)),
		median(field(ss, func(s sample) float64 { return s.cal })), setupS)
	return r.report(endToEndMetrics, map[string]float64{
		"setup_s":         setupS,
		"wall_s":          wall,
		"req_per_s":       ratio(float64(o.reqs), wall),
		"events_per_s":    ratio(float64(o.events), wall),
		"drive_s_per_s":   ratio(o.simNS/1e9, wall),
		"cells_per_s":     ratio(float64(o.cells), wall),
		"heap_live_mb":    maxOf(field(ss, func(s sample) float64 { return s.live })) / 1e6,
		"alloc_b_per_req": ratio(median(field(ss, func(s sample) float64 { return s.alloc })), float64(o.units)),
	}), nil
}

func walls(ss []sample) []float64 { return field(ss, sample.wall) }

func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// median is the middle of xs, the mean of the two middle values for an even
// count, or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs, interpolated linearly between the order
// statistics around position q·(n-1), or 0 for none.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles returns the first and third quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), the rule the benchmark's spread is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
