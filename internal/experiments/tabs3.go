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

// TabS3Row is one scheduling regime of the open-channel comparison.
type TabS3Row struct {
	Config   string
	Requests int64
	P50      sim.Time
	P99      sim.Time
	Max      sim.Time
}

// Predictability is the p99/p50 ratio — low means the device behaves the
// same way every time, which is §1's claim for open-channel SSDs.
func (r TabS3Row) Predictability() float64 {
	if r.P50 == 0 {
		return 0
	}
	return float64(r.P99) / float64(r.P50)
}

// TabS3Result is the open-channel upper-bound experiment (§1): the same
// steady-state workload against a conventional black-box FTL and against a
// host-scheduled (open-channel-style) FTL that defers collection around
// foreground traffic.
type TabS3Result struct {
	Rows []TabS3Row
}

// Improvement returns blackbox-p99 / openchannel-p99.
func (r TabS3Result) Improvement() float64 {
	if len(r.Rows) != 2 || r.Rows[1].P99 == 0 {
		return 0
	}
	return float64(r.Rows[0].P99) / float64(r.Rows[1].P99)
}

// Table renders the comparison.
func (r TabS3Result) Table() string {
	t := stats.NewTable("scheduling", "requests", "p50(µs)", "p99(µs)", "max(µs)", "p99/p50")
	for _, row := range r.Rows {
		t.AddRow(row.Config, row.Requests,
			row.P50/sim.Microsecond, row.P99/sim.Microsecond, row.Max/sim.Microsecond,
			fmt.Sprintf("%.1fx", row.Predictability()))
	}
	return t.String() + fmt.Sprintf("the knowing host's p99 is %.1fx better — the transparency upper bound of §1\n",
		r.Improvement())
}

// TabS3OpenChannel runs the comparison on a read-heavy mixed workload in
// steady state (the regime where Wang et al.'s open-channel LevelDB gains
// came from, §2): reads that land behind in-flight collection programs and
// erases eat millisecond stalls on the black-box FTL; the host-scheduled
// FTL hides collection in arrival gaps.
func TabS3OpenChannel(scale Scale, seed int64) TabS3Result {
	dur := sim.Time(scale.pick(int64(400*sim.Millisecond), int64(2*sim.Second)))
	configs := []struct {
		name string
		mut  func(*ssd.Config)
	}{
		{"black-box FTL", func(*ssd.Config) {}},
		{"open-channel host (read-priority suspend)", func(c *ssd.Config) {
			c.FTL.GCSuspend = true
		}},
	}
	var cells []runner.Task[TabS3Row]
	for _, cfg := range configs {
		cfg := cfg
		cells = append(cells, runner.TracedCell(observer(), "tabS3/"+cfg.name, func(tr *obs.Tracer) TabS3Row {
			dev := fig3Device(cfg.mut, seed, tr)
			res := workload.Run(dev, workload.Spec{
				Name:         cfg.name,
				Pattern:      workload.Uniform,
				RequestBytes: 4096,
				ReadFrac:     0.7,
				Interval:     100 * sim.Microsecond,
				Burst:        16,
				Seed:         seed,
			}, workload.Options{Duration: dur})
			dev.PublishMetrics(tr)
			return TabS3Row{
				Config:   cfg.name,
				Requests: res.Requests,
				P50:      res.Latency.Percentile(50),
				P99:      res.Latency.Percentile(99),
				Max:      res.Latency.Max(),
			}
		}))
	}
	return TabS3Result{Rows: runner.Map(pool(), cells)}
}

// TabS4Cell is one design point of the full-factorial sweep.
type TabS4Cell struct {
	GC    ftl.GCPolicy
	Cache ftl.CacheKind
	Alloc ftl.AllocOrder
	Mean  sim.Time
	P99   sim.Time
}

// TabS4Result sweeps the whole FTL design space the paper's §2.1 argument
// generalizes over: every combination of victim policy, cache designation
// and allocation order, under one fixed workload. The spread of means vs
// the spread of tails quantifies how much of the design space hides inside
// a simulator's "accurate" margin.
type TabS4Result struct {
	Cells []TabS4Cell
}

// MeanSpread and P99Spread return max/min over the sweep.
func (r TabS4Result) MeanSpread() float64 {
	return r.spread(func(c TabS4Cell) sim.Time { return c.Mean })
}

// P99Spread returns the tail spread across the design space.
func (r TabS4Result) P99Spread() float64 {
	return r.spread(func(c TabS4Cell) sim.Time { return c.P99 })
}

func (r TabS4Result) spread(get func(TabS4Cell) sim.Time) float64 {
	var lo, hi sim.Time
	for i, c := range r.Cells {
		v := get(c)
		if i == 0 || v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// Table renders the sweep.
func (r TabS4Result) Table() string {
	t := stats.NewTable("GC", "cache", "alloc", "mean(µs)", "p99(µs)")
	for _, c := range r.Cells {
		t.AddRow(c.GC, c.Cache, c.Alloc, c.Mean/sim.Microsecond, c.P99/sim.Microsecond)
	}
	return t.String() + fmt.Sprintf("across %d design points: mean spread %.1fx, p99 spread %.1fx\n",
		len(r.Cells), r.MeanSpread(), r.P99Spread())
}

// TabS4DesignSweep runs the full factorial (3 GC x 2 cache x 4 alloc = 24
// points). The 24 design
// points are independent simulations replaying identical host traffic,
// fanned out on the installed runner pool.
func TabS4DesignSweep(scale Scale, seed int64) TabS4Result {
	dur := sim.Time(scale.pick(int64(200*sim.Millisecond), int64(1*sim.Second)))
	var cells []runner.Task[TabS4Cell]
	for _, gc := range []ftl.GCPolicy{ftl.GCGreedy, ftl.GCRandGreedy, ftl.GCFIFO} {
		for _, cache := range []ftl.CacheKind{ftl.CacheData, ftl.CacheMapping} {
			for _, alloc := range []ftl.AllocOrder{ftl.AllocCWDP, ftl.AllocPDWC, ftl.AllocWDPC, ftl.AllocDPCW} {
				gc, cache, alloc := gc, cache, alloc
				cells = append(cells, runner.TracedCell(observer(),
					fmt.Sprintf("tabS4/%v/%v/%v", gc, cache, alloc),
					func(tr *obs.Tracer) TabS4Cell {
						dev := fig3Device(func(c *ssd.Config) {
							c.FTL.GC = gc
							c.FTL.Cache = cache
							c.FTL.Alloc = alloc
						}, seed, tr)
						res := workload.Run(dev, workload.Spec{
							Name: "sweep", Pattern: workload.Uniform, RequestBytes: 16384,
							QueueDepth: 4, Seed: seed,
						}, workload.Options{Duration: dur})
						dev.PublishMetrics(tr)
						return TabS4Cell{
							GC: gc, Cache: cache, Alloc: alloc,
							Mean: sim.Time(res.Latency.Mean()),
							P99:  res.Latency.Percentile(99),
						}
					}))
			}
		}
	}
	return TabS4Result{Cells: runner.Map(pool(), cells)}
}
