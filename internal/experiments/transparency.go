package experiments

import (
	"fmt"

	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
	"ssdtp/internal/smart"
	"ssdtp/internal/stats"
	"ssdtp/internal/telemetry"
	"ssdtp/internal/workload"
)

// The transparency experiment (DESIGN.md §14): the paper's §4 asks vendors
// to disclose internal state so hosts can *predict* performance; fig4b
// already showed what the host gets without it (weighted SMART models
// mislead by ~2×). Here we quantify what disclosure buys. A host-side
// forecaster sees only the transparency log page at each window boundary and
// predicts whether the next window hides a GC-stall latency cliff; it is
// scored against ground truth only the simulator can compute (per-window
// latency attribution from the profiler) and against a black-box baseline
// restricted to SMART — cumulative counters that, by construction, report
// garbage collection one window after it hurt.

// transparencyWindow is the log-page sampling interval: fine enough that a
// GC burst spans a handful of windows, coarse enough that window p99 is a
// real order statistic at QD4.
const transparencyWindow = sim.Millisecond

// A window is a cliff when its p99 clears cliffP99Factor × the run's p50 and
// at least cliffGCSharePct of the window's summed latency is attributed to
// gc_stall — "slow, and slow because of GC".
const (
	cliffP99Factor  = 3
	cliffGCSharePct = 10
)

// TransparencyRow is one FTL configuration's forecast scores.
type TransparencyRow struct {
	Config    string
	Windows   int // scored boundaries
	Cliffs    int // ground-truth positive windows
	Telemetry telemetry.Score
	SMART     telemetry.Score
}

// TransparencyResult aggregates all configurations.
type TransparencyResult struct {
	Rows []TransparencyRow
}

// MeanF1 returns the headline comparison: the mean F1 of the log-page
// forecaster and of the SMART-only baseline over the configurations that saw
// any cliff, and how many configurations those were (all zero when none
// did).
func (r TransparencyResult) MeanF1() (telemetryF1, smartF1 float64, configs int) {
	for _, row := range r.Rows {
		if row.Cliffs == 0 {
			continue
		}
		telemetryF1 += row.Telemetry.F1()
		smartF1 += row.SMART.F1()
		configs++
	}
	if configs == 0 {
		return 0, 0, 0
	}
	return telemetryF1 / float64(configs), smartF1 / float64(configs), configs
}

// Table renders the per-configuration scores plus the headline comparison.
func (r TransparencyResult) Table() string {
	t := stats.NewTable("config", "windows", "cliffs",
		"log page P", "R", "F1", "SMART-only P", "R", "F1")
	for _, row := range r.Rows {
		t.AddRow(row.Config, row.Windows, row.Cliffs,
			fmt.Sprintf("%.2f", row.Telemetry.Precision()),
			fmt.Sprintf("%.2f", row.Telemetry.Recall()),
			fmt.Sprintf("%.2f", row.Telemetry.F1()),
			fmt.Sprintf("%.2f", row.SMART.Precision()),
			fmt.Sprintf("%.2f", row.SMART.Recall()),
			fmt.Sprintf("%.2f", row.SMART.F1()))
	}
	out := t.String()
	if tf, sf, n := r.MeanF1(); n > 0 {
		out += fmt.Sprintf(
			"next-window GC-cliff forecast, mean F1 over %d configs: %.2f from the disclosed log page vs %.2f from SMART alone\n",
			n, tf, sf)
	}
	return out
}

// transparencyTruth accumulates one window's ground truth from the
// attribution profiler's row stream.
type transparencyTruth struct {
	lat   *stats.LatencyRecorder
	gc    sim.Time
	total sim.Time
}

// Transparency runs the experiment: each fig3 FTL configuration, prefilled
// to steady state, under the fig3 random-write workload, with the log page
// sampled every transparencyWindow. Both forecasters make one binary call
// per boundary about the window that follows it; only their inputs differ.
func Transparency(scale Scale, seed int64) TransparencyResult {
	dur := sim.Time(scale.pick(int64(400*sim.Millisecond), int64(2*sim.Second)))

	var cells []runner.Task[TransparencyRow]
	for _, cfg := range Fig3Configs() {
		cfg := cfg
		label := fmt.Sprintf("transparency/%s", cfg.Name)
		cells = append(cells, runner.TracedCell(observer(), label,
			func(tr *obs.Tracer) TransparencyRow {
				// Ground truth needs the profiler and the window needs an
				// engine hook, so the cell brings its own tracer when no
				// observer is installed (spans are not the product here —
				// cap the buffer either way via the collector's setting or
				// our own).
				if tr == nil {
					tr = obs.NewTracer(label)
					tr.SetRecordCap(1)
				}
				dev := fig3Device(cfg.Mutate, seed, tr)

				// The disclosed stream: one log page per boundary.
				rec := telemetry.NewRecorder(label, transparencyWindow)
				rec.SetSource(dev.FillLogPage)
				if ts := telemetrySet(); ts != nil {
					ts.Adopt(rec)
					defer ts.MarkDone(label)
				}
				// The black-box stream: SMART at the same boundaries.
				var smarts []int64
				tr.SetWindow(transparencyWindow, func(at sim.Time) {
					rec.Observe(at)
					smarts = append(smarts, dev.SMART().Value(smart.AttrFTLProgramPageCount))
				})

				// Ground truth: bucket each completed request's attribution
				// row into the window holding its completion time.
				truth := map[int64]*transparencyTruth{}
				all := stats.NewLatencyRecorder()
				tr.Prof().SetRowSink(func(row obs.AttrRow) {
					w := int64(dev.Engine().Now() / transparencyWindow)
					g := truth[w]
					if g == nil {
						g = &transparencyTruth{lat: stats.NewLatencyRecorder()}
						truth[w] = g
					}
					g.lat.Record(row.Total)
					g.gc += row.Phases[obs.PhaseGCStall]
					g.total += row.Total
					all.Record(row.Total)
				})

				workload.Run(dev, workload.Spec{
					Name:         cfg.Name,
					Pattern:      workload.Uniform,
					RequestBytes: 4096,
					QueueDepth:   4,
					Seed:         seed,
				}, workload.Options{Duration: dur})
				dev.PublishMetrics(tr)

				p50 := all.Percentile(50)
				isCliff := func(w int64) bool {
					g := truth[w]
					if g == nil || g.total == 0 {
						return false
					}
					return g.lat.Percentile(99) >= cliffP99Factor*p50 &&
						g.gc*100 >= g.total*cliffGCSharePct
				}

				out := TransparencyRow{Config: cfg.Name}
				rows := rec.Rows()
				for i := range rows {
					w := int64(rows[i].T / transparencyWindow)
					actual := isCliff(w)
					var prev *telemetry.Page
					if i > 0 {
						prev = &rows[i-1].Page
					}
					out.Telemetry.Add(telemetry.PredictCliff(&rows[i].Page, prev), actual)
					out.SMART.Add(i > 0 && smarts[i] > smarts[i-1], actual)
					out.Windows++
					if actual {
						out.Cliffs++
					}
				}
				return out
			}))
	}
	return TransparencyResult{Rows: runner.Map(pool(), cells)}
}
