package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ssdtp/internal/sim"
	"ssdtp/internal/workload"
)

// ledger is the traced run's benchmark-side record. Spans wrap each layer's
// public calls from outside: a workload.Target wrapper times submissions and
// the completion callbacks they return through, and an engine hook times the
// gaps between fired events. Spans stay in memory until the run ends.
type ledger struct {
	t0     time.Time
	spans  []span
	open   []int32 // indices of the open spans, innermost last
	nextID int64

	lastHook  int64 // ns since t0 of the last hook call; -1 outside hooked reps
	gapNS     int64 // host ns between consecutive hook calls: one event's work each
	coveredNS int64 // top-level span time inside those gaps
	events    int64

	cellDur []float64            // paper-quick: runner cell durations, s
	exp     map[string][]float64 // paper-quick: per-experiment times, s
}

// span is one timed call: name is "<layer>.<call>", times are ns since the
// ledger started, parent indexes the enclosing span (-1 for none), and req
// is the request the call serves.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

func newLedger() *ledger {
	return &ledger{t0: time.Now(), lastHook: -1, exp: map[string][]float64{}}
}

func (l *ledger) now() int64 { return int64(time.Since(l.t0)) }

// begin opens a span inside the innermost open one.
func (l *ledger) begin(name string, req int64) int32 {
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, start: l.now(), parent: parent, req: req})
	i := int32(len(l.spans) - 1)
	l.open = append(l.open, i)
	return i
}

// end closes span i, the innermost open span.
func (l *ledger) end(i int32) {
	s := &l.spans[i]
	s.end = l.now()
	l.open = l.open[:len(l.open)-1]
	if s.parent < 0 && l.lastHook >= 0 {
		l.coveredNS += s.end - s.start
	}
}

// selfTimes returns each span name's summed self time — its duration less
// the durations of its direct children — and its span count.
func selfTimes(spans []span) (self, count map[string]float64) {
	self, count = map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		d := float64(s.end - s.start)
		self[s.name] += d
		count[s.name]++
		if s.parent >= 0 {
			self[spans[s.parent].name] -= d
		}
	}
	return self, count
}

// hookEngine times every event eng fires: each hook call closes the gap
// since the previous one, which is the previous event's work.
func (l *ledger) hookEngine(eng *sim.Engine) {
	eng.SetHook(func(sim.Time, int) {
		t := l.now()
		if l.lastHook >= 0 {
			l.gapNS += t - l.lastHook
		}
		l.lastHook = t
		l.events++
	})
}

// unhook removes the hook a rep installed on eng; l may be nil.
func unhook(eng *sim.Engine, l *ledger) {
	eng.SetHook(nil)
	if l != nil {
		l.lastHook = -1
	}
}

// eventNS is the mean host time of one fired event outside the spans.
func (l *ledger) eventNS() float64 {
	return ratio(float64(l.gapNS-l.coveredNS), float64(l.events))
}

// spanTarget wraps a workload.Target: each submission is a "<layer>.submit"
// span, and its completion callback a "workload.complete" span of the same
// request, inside which the generator's next submission nests.
type spanTarget struct {
	workload.Target
	l      *ledger
	submit string
}

func (l *ledger) wrap(t workload.Target, layer string) workload.Target {
	return &spanTarget{Target: t, l: l, submit: layer + ".submit"}
}

func (t *spanTarget) WriteAsync(off int64, data []byte, length int64, done func()) error {
	id, complete := t.completion(done)
	s := t.l.begin(t.submit, id)
	err := t.Target.WriteAsync(off, data, length, complete)
	t.l.end(s)
	return err
}

func (t *spanTarget) ReadAsync(off int64, buf []byte, length int64, done func()) error {
	id, complete := t.completion(done)
	s := t.l.begin(t.submit, id)
	err := t.Target.ReadAsync(off, buf, length, complete)
	t.l.end(s)
	return err
}

// completion assigns a request id and wraps done in its completion span.
func (t *spanTarget) completion(done func()) (int64, func()) {
	l := t.l
	id := l.nextID
	l.nextID++
	return id, func() {
		s := l.begin("workload.complete", id)
		done()
		l.end(s)
	}
}

// dump writes the first max spans as JSON lines.
func (l *ledger) dump(path string, max int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	spans := l.spans
	if len(spans) > max {
		spans = spans[:max]
	}
	for _, s := range spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n",
			s.name, s.start, s.end, s.parent, s.req)
	}
	return w.Flush()
}

// layerMetrics are what -trace 1 reports, in BENCHMARK.json's order. Host
// costs are ns per operation unless the name says otherwise; per-request
// figures are per cell on paper-quick. A figure for a layer the workload
// does not exercise is 0.
var layerMetrics = append([]metricDef{
	{"sim.events_per_req", "1/req"},
	{"sim.pending_peak", "count"},
	{"sim.step_ns", "ns"},
	{"workload.complete_ns", "ns"},
	{"stats.record_ns", "ns"},
	{"stats.percentile_ms", "ms"},
	{"ssd.submit_ns", "ns"},
	{"ssd.event_ns", "ns"},
	{"ssd.glue_ns_per_req", "ns"},
	{"ftl.write_ns", "ns"},
	{"ftl.read_ns", "ns"},
	{"ftl.pages_per_req", "1/req"},
	{"ftl.gc_pages_per_req", "1/req"},
	{"ftl.erases_per_req", "1/req"},
	{"ftl.page_reads_per_req", "1/req"},
	{"ftl.waf", "ratio"},
	{"ftl.cache_hit_frac", "frac"},
	{"onfi.read_ns", "ns"},
	{"onfi.program_ns", "ns"},
	{"onfi.erase_ns", "ns"},
	{"onfi.busy_frac", "frac"},
	{"onfi.wait_ns_per_wait", "sim_ns"},
	{"nand.read_ns", "ns"},
	{"nand.program_ns", "ns"},
	{"nand.erase_ns", "ns"},
	{"cow.snapshot_ms", "ms"},
	{"cow.restore_us", "us"},
	{"cow.copies_per_req", "1/req"},
	{"cow.owned_mb", "MB"},
	{"fleet.submit_ns", "ns"},
	{"fleet.host_event_ns", "ns"},
	{"fleet.host_events_per_req", "1/req"},
	{"fleet.drive_events_per_req", "1/req"},
	{"fleet.resident_mb", "MB"},
	{"runner.cells", "count"},
	{"runner.cell_s_p50", "s"},
	{"runner.cell_s_max", "s"},
	{"runner.busy_frac", "frac"},
}, append(experimentMetrics(), []metricDef{
	{"trace.overhead_frac", "frac"},
	{"ledger.e2e_ns_per_req", "ns"},
}...)...)

// experimentMetrics are each paper experiment's warm and cold pass times.
func experimentMetrics() []metricDef {
	var out []metricDef
	for _, e := range paperExperiments {
		out = append(out, metricDef{"experiments." + e.id + "_s", "s"}, metricDef{"experiments." + e.id + "_cold_s", "s"})
	}
	return out
}

// spanDumpCap bounds the spans one traced run writes out.
const spanDumpCap = 200_000

// runLedger is the traced run. After set-up and the warm-up rep it spends a
// third of the seconds each on untraced reps (the baseline of
// trace.overhead_frac, and the end-to-end cost the ledger splits), on
// untraced reps under the CPU profiler, and on traced reps; then it measures
// each layer alone.
func runLedger(w workloadSpec, seed int64, seconds float64, outDir string) (report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return report{}, err
	}
	b := w.make(seed)
	l := newLedger()
	r, err := warmUp(b, l)
	if err != nil {
		return report{}, err
	}
	r.checkPinned(w.name, seed)
	// These phases rebuild no set-up, the only step of reps that can fail.
	plain, _ := r.reps(modeTimed, nil, seconds/3, 0)
	base := filepath.Join(outDir, fmt.Sprintf("%s-%d", w.name, seed))
	if err := withCPUProfile(base+".cpu.pprof", func() { r.reps(modeTimed, nil, seconds/3, 0) }); err != nil {
		return report{}, err
	}
	traced, _ := r.reps(modeTraced, l, seconds/3, 0)
	cfg, img, err := b.iso()
	if err != nil {
		return report{}, fmt.Errorf("iso image: %w", err)
	}
	iso, err := measureIso(cfg, img, int(r.ref.counts["sim.pending_peak"]), r.ref.reqs, seed)
	if err != nil {
		return report{}, err
	}
	m, terms := ledgerMetrics(w, r.ref, plain, traced, l, iso)
	shares, err := pprofShares(base + ".cpu.pprof")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: CPU profile not folded: %v\n", err)
	}
	printLedger(os.Stdout, w, seed, m, terms, l, shares)
	if err := l.dump(base+".spans.jsonl", spanDumpCap); err != nil {
		return report{}, err
	}
	return r.report(layerMetrics, m), nil
}

// term is one layer's iso cost weighted by how often its operation runs per
// request.
type term struct {
	layer  string
	costNS float64
	perReq float64
}

// ledgerTerms weights each iso cost in m by the workload's exact count of
// that operation per request.
func ledgerTerms(m map[string]float64) []term {
	return []term{
		{"sim", m["sim.step_ns"], m["sim.events_per_req"]},
		{"stats", m["stats.record_ns"], m["stats.records_per_req"]},
		{"ftl", m["ftl.write_ns"], m["ftl.writes_per_req"]},
		{"ftl", m["ftl.read_ns"], m["ftl.reads_per_req"]},
		{"onfi", m["onfi.program_ns"], m["ftl.pages_per_req"]},
		{"onfi", m["onfi.erase_ns"], m["ftl.erases_per_req"]},
		{"onfi", m["onfi.read_ns"], m["ftl.page_reads_per_req"]},
		{"nand", m["nand.program_ns"], m["ftl.pages_per_req"]},
		{"nand", m["nand.erase_ns"], m["ftl.erases_per_req"]},
		{"nand", m["nand.read_ns"], m["ftl.page_reads_per_req"]},
	}
}

// glue is what the iso layer costs leave unexplained of the end-to-end cost
// of a request: e2e less each term's cost times its count. The terms and the
// glue add back up to e2e by construction.
func glue(e2eNS float64, terms []term) float64 {
	g := e2eNS
	for _, t := range terms {
		g -= t.costNS * t.perReq
	}
	return g
}

// ledgerMetrics assembles the per-layer metrics from the warm-up rep's exact
// counts, the untraced and traced reps, the spans, and the iso costs.
func ledgerMetrics(w workloadSpec, ref outcome, plain, traced []sample, l *ledger, c isoCosts) (map[string]float64, []term) {
	m := map[string]float64{}
	for k, v := range ref.counts {
		m[k] = v
	}
	m["sim.events_per_req"] = ratio(float64(ref.events), float64(ref.units))
	m["sim.step_ns"] = c.stepNS
	m["stats.record_ns"] = c.recordNS
	m["stats.percentile_ms"] = c.percentileMS
	m["ftl.write_ns"], m["ftl.read_ns"] = c.ftlWriteNS, c.ftlReadNS
	m["onfi.read_ns"], m["onfi.program_ns"], m["onfi.erase_ns"] = c.onfiReadNS, c.onfiProgramNS, c.onfiEraseNS
	m["nand.read_ns"], m["nand.program_ns"], m["nand.erase_ns"] = c.nandReadNS, c.nandProgramNS, c.nandEraseNS
	m["cow.snapshot_ms"], m["cow.restore_us"] = c.snapshotMS, c.restoreUS

	self, n := selfTimes(l.spans)
	m["workload.complete_ns"] = ratio(self["workload.complete"], n["workload.complete"])
	switch w.layer {
	case "ssd":
		m["ssd.submit_ns"] = ratio(self["ssd.submit"], n["ssd.submit"])
		m["ssd.event_ns"] = l.eventNS()
	case "fleet":
		m["fleet.submit_ns"] = ratio(self["fleet.submit"], n["fleet.submit"])
		m["fleet.host_event_ns"] = l.eventNS()
	case "runner":
		m["runner.cells"] = float64(ref.cells)
		m["runner.cell_s_p50"] = median(l.cellDur)
		m["runner.cell_s_max"] = maxOf(l.cellDur)
		m["runner.busy_frac"] = ratio(sum(l.cellDur), paperWorkers*sum(walls(traced)))
		for id, ts := range l.exp {
			m["experiments."+id] = median(ts)
		}
	}
	m["trace.overhead_frac"] = ratio(wallTime(traced), wallTime(plain)) - 1
	// The iso costs are host ns, so the cost they split is too.
	e2e := ratio(median(walls(plain))*1e9, float64(ref.units))
	m["ledger.e2e_ns_per_req"] = e2e
	if w.layer == "runner" {
		return m, nil
	}
	terms := ledgerTerms(m)
	m["ssd.glue_ns_per_req"] = glue(e2e, terms)
	return m, terms
}

// printLedger writes the human-readable ledger: each layer's share of the
// end-to-end cost per request beside its share of the CPU profile's flat
// time, then the span self times.
func printLedger(out io.Writer, w workloadSpec, seed int64, m map[string]float64, terms []term, l *ledger, shares map[string]float64) {
	e2e := m["ledger.e2e_ns_per_req"]
	fmt.Fprintf(out, "ledger %s seed %d: %.1f host ns per request (per cell on paper-quick)\n", w.name, seed, e2e)
	cost := map[string]float64{}
	for _, t := range terms {
		cost[t.layer] += t.costNS * t.perReq
	}
	if len(terms) > 0 {
		cost["glue"] = m["ssd.glue_ns_per_req"]
		fmt.Fprintf(out, "  = iso layers %.1f + glue %.1f\n", e2e-cost["glue"], cost["glue"])
	}
	rows := map[string]bool{}
	for k := range cost {
		rows[k] = true
	}
	for k, v := range shares {
		if v >= 0.005 {
			rows[k] = true
		}
	}
	names := make([]string, 0, len(rows))
	for k := range rows {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if shares[names[i]] != shares[names[j]] {
			return shares[names[i]] > shares[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(out, "  %-12s %12s %8s %11s\n", "layer", "ledger ns", "ledger", "pprof flat")
	for _, k := range names {
		ns, share := "-", "-"
		if v, ok := cost[k]; ok {
			ns, share = fmt.Sprintf("%.1f", v), fmt.Sprintf("%.1f%%", 100*ratio(v, e2e))
		}
		fmt.Fprintf(out, "  %-12s %12s %8s %10.1f%%\n", k, ns, share, 100*shares[k])
	}
	self, n := selfTimes(l.spans)
	spanNames := make([]string, 0, len(self))
	for k := range self {
		spanNames = append(spanNames, k)
	}
	sort.Strings(spanNames)
	for _, k := range spanNames {
		fmt.Fprintf(out, "  span %-18s self %8.1f ns x %.0f\n", k, ratio(self[k], n[k]), n[k])
	}
	if l.events > 0 {
		fmt.Fprintf(out, "  engine events: %.1f ns each outside spans, x %d\n", l.eventNS(), l.events)
	}
	var exp []string
	for k := range m {
		if strings.HasPrefix(k, "experiments.") {
			exp = append(exp, k)
		}
	}
	sort.Strings(exp)
	for _, k := range exp {
		fmt.Fprintf(out, "  %-30s %.3f s\n", k, m[k])
	}
	fmt.Fprintf(out, "  trace.overhead_frac %.3f\n", m["trace.overhead_frac"])
}
