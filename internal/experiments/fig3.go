package experiments

import (
	"fmt"

	"ssdtp/internal/ftl"
	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
	"ssdtp/internal/workload"
)

// Fig3Config is one FTL design point of the §2.1 fidelity experiment: the
// baseline with at most one knob flipped.
type Fig3Config struct {
	Name   string
	Mutate func(*ssd.Config)
}

// Fig3Configs returns the paper's four configurations: baseline (greedy GC,
// data cache, CWDP) and one-knob variants (randomized-greedy GC, mapping
// cache, PDWC allocation).
func Fig3Configs() []Fig3Config {
	return []Fig3Config{
		{Name: "baseline", Mutate: func(*ssd.Config) {}},
		{Name: "rand-greedy-gc", Mutate: func(c *ssd.Config) {
			c.FTL.GC = ftl.GCRandGreedy
			c.FTL.GCSample = 2 // d=2 choices: visibly worse victims
		}},
		{Name: "mapping-cache", Mutate: func(c *ssd.Config) { c.FTL.Cache = ftl.CacheMapping }},
		{Name: "pdwc-alloc", Mutate: func(c *ssd.Config) { c.FTL.Alloc = ftl.AllocPDWC }},
	}
}

// Fig3Series is one configuration's latency profile at one request size.
type Fig3Series struct {
	Config       string
	RequestBytes int
	Requests     int64
	Mean         sim.Time
	P50          sim.Time
	P99          sim.Time
	Max          sim.Time
	// Tail is the top-1% latencies in ascending order — the x-axis
	// "requests ordered by latency" of Figure 3.
	Tail []sim.Time
}

// Fig3Result aggregates all configurations.
type Fig3Result struct {
	Series []Fig3Series
}

// P99Spread returns the largest max(p99)/min(p99) across configurations at
// any single request size — the paper's "up to an order of magnitude"
// headline.
func (r Fig3Result) P99Spread() float64 {
	bySize := map[int][2]sim.Time{}
	for _, s := range r.Series {
		mm := bySize[s.RequestBytes]
		if mm[0] == 0 || s.P99 < mm[0] {
			mm[0] = s.P99
		}
		if s.P99 > mm[1] {
			mm[1] = s.P99
		}
		bySize[s.RequestBytes] = mm
	}
	best := 0.0
	for _, mm := range bySize {
		if mm[0] > 0 {
			if f := float64(mm[1]) / float64(mm[0]); f > best {
				best = f
			}
		}
	}
	return best
}

// Table renders the per-configuration summary.
func (r Fig3Result) Table() string {
	t := stats.NewTable("config", "req size", "requests", "mean(µs)", "p50(µs)", "p99(µs)", "max(µs)")
	for _, s := range r.Series {
		t.AddRow(s.Config, fmtBytes(int64(s.RequestBytes)), s.Requests,
			s.Mean/sim.Microsecond, s.P50/sim.Microsecond,
			s.P99/sim.Microsecond, s.Max/sim.Microsecond)
	}
	return t.String() + fmt.Sprintf("largest p99 spread across FTLs at one size: %.1fx\n", r.P99Spread())
}

// fig3Device builds and fully prefills one device so measurement happens in
// steady state (past the priming stage) where GC runs. A non-nil tracer is
// bound to the device but sees none of the prefill: the interesting trace is
// the measured phase, and skipping the (identical-per-config) priming traffic
// keeps trace files proportional to what the experiment reports. With the
// preconditioning cache on (the default), the prefill image is built once per
// distinct configuration and cloned here (see precond.go).
func fig3Device(cfgMut func(*ssd.Config), seed int64, tr *obs.Tracer) *ssd.Device {
	cfg := ssd.MQSimBase()
	cfg.FTL.Seed = seed
	cfgMut(&cfg)
	return prefilledDevice(cfg, tr)
}

// Fig3TailLatency runs the experiment: uniform random writes of increasing
// request size against each configuration in steady state, at a bounded
// queue depth. Tails expose each FTL's stall structure; medians and means
// stay comparatively close (TableS1).
//
// Each (configuration, size) cell is an independent simulation on its own
// engine and device; cells fan out on the installed runner pool. Every
// cell deliberately replays the same seed — the comparison across FTL
// variants is controlled, identical host traffic against each design.
func Fig3TailLatency(scale Scale, seed int64) Fig3Result {
	dur := sim.Time(scale.pick(int64(400*sim.Millisecond), int64(2*sim.Second)))

	sizes := []int{4096, 16384, 65536}
	var cells []runner.Task[Fig3Series]
	for _, cfg := range Fig3Configs() {
		for _, size := range sizes {
			cfg, size := cfg, size
			label := fmt.Sprintf("fig3/%s/%s", cfg.Name, fmtBytes(int64(size)))
			cells = append(cells, runner.TracedCell(observer(), label,
				func(tr *obs.Tracer) Fig3Series {
					dev := fig3Device(cfg.Mutate, seed, tr)
					res := workload.Run(dev, workload.Spec{
						Name:         cfg.Name,
						Pattern:      workload.Uniform,
						RequestBytes: size,
						// Moderate queue depth, closed loop: backlog stays
						// bounded, so tail latency reflects each FTL's stall
						// structure rather than unbounded queueing on the
						// slowest configuration.
						QueueDepth: 4,
						Seed:       seed,
					}, workload.Options{Duration: dur})
					dev.PublishMetrics(tr)
					k := res.Latency.Count() / 100
					if k < 10 {
						k = 10
					}
					return Fig3Series{
						Config:       cfg.Name,
						RequestBytes: size,
						Requests:     res.Requests,
						Mean:         sim.Time(res.Latency.Mean()),
						P50:          res.Latency.Percentile(50),
						P99:          res.Latency.Percentile(99),
						Max:          res.Latency.Max(),
						Tail:         res.Latency.TopK(k),
					}
				}))
		}
	}
	return Fig3Result{Series: runner.Map(pool(), cells)}
}

// TableS1Row is one row of the mean-delta table (§2.1's textual claim that
// configuration changes move the mean only slightly past MQSim's 18%
// accuracy threshold, while the tails move an order of magnitude).
type TableS1Row struct {
	Config       string
	RequestBytes int
	Mean         sim.Time
	DeltaPct     float64
	P99          sim.Time
	P99Factor    float64
}

// TableS1Result derives mean/p99 deltas from a Fig3Result.
type TableS1Result struct {
	Rows []TableS1Row
}

// Table renders the rows.
func (r TableS1Result) Table() string {
	t := stats.NewTable("config", "req size", "mean(µs)", "Δmean vs base", "p99(µs)", "p99 vs base")
	for _, row := range r.Rows {
		t.AddRow(row.Config, fmtBytes(int64(row.RequestBytes)), row.Mean/sim.Microsecond,
			fmt.Sprintf("%+.1f%%", row.DeltaPct),
			row.P99/sim.Microsecond,
			fmt.Sprintf("%.1fx", row.P99Factor))
	}
	return t.String()
}

// TableS1MeanDelta computes the table from fig3's series, comparing each
// configuration to the baseline at the same request size.
func TableS1MeanDelta(fig3 Fig3Result) TableS1Result {
	var out TableS1Result
	base := map[int]Fig3Series{}
	for _, s := range fig3.Series {
		if s.Config == "baseline" {
			base[s.RequestBytes] = s
		}
	}
	for _, s := range fig3.Series {
		b, ok := base[s.RequestBytes]
		if !ok {
			continue
		}
		dm := 0.0
		if b.Mean > 0 {
			dm = 100 * (float64(s.Mean) - float64(b.Mean)) / float64(b.Mean)
		}
		pf := 0.0
		if b.P99 > 0 {
			pf = float64(s.P99) / float64(b.P99)
		}
		out.Rows = append(out.Rows, TableS1Row{
			Config: s.Config, RequestBytes: s.RequestBytes,
			Mean: s.Mean, DeltaPct: dm, P99: s.P99, P99Factor: pf,
		})
	}
	return out
}
