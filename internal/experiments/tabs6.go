package experiments

import (
	"fmt"
	"math/rand"

	"ssdtp/internal/hostif"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
)

// TabS6Row is one host-interface configuration's outcome for the light
// tenant.
type TabS6Row struct {
	Config    string
	Completed int64
	P50       sim.Time
	P99       sim.Time
	Max       sim.Time
}

// TabS6Result is the multi-queue proportionality experiment: a latency-
// sensitive tenant sharing a device with a flooding tenant, under the
// host-interface disciplines the paper's citations ([15], MQSim) study.
type TabS6Result struct {
	Rows []TabS6Row
}

// Table renders the light tenant's view per configuration.
func (r TabS6Result) Table() string {
	t := stats.NewTable("host interface", "light-tenant reqs", "p50(µs)", "p99(µs)", "max(µs)")
	for _, row := range r.Rows {
		t.AddRow(row.Config, row.Completed,
			row.P50/sim.Microsecond, row.P99/sim.Microsecond, row.Max/sim.Microsecond)
	}
	improvement := 0.0
	if len(r.Rows) >= 2 && r.Rows[len(r.Rows)-1].P99 > 0 {
		improvement = float64(r.Rows[0].P99) / float64(r.Rows[len(r.Rows)-1].P99)
	}
	return t.String() + fmt.Sprintf("per-tenant queues with weighting cut the light tenant's p99 by %.1fx\n",
		improvement)
}

// TabS6Proportionality runs a flooding writer and a paced reader through
// three host-interface configurations: one shared queue, per-tenant queues
// under round-robin, and per-tenant queues with the reader weighted 4:1.
func TabS6Proportionality(scale Scale, seed int64) TabS6Result {
	dur := sim.Time(scale.pick(int64(150*sim.Millisecond), int64(800*sim.Millisecond)))
	type setup struct {
		name     string
		arb      hostif.Arbitration
		separate bool
		weight   int
	}
	setups := []setup{
		{"single shared queue", hostif.RoundRobin, false, 1},
		{"per-tenant queues (RR)", hostif.RoundRobin, true, 1},
		{"per-tenant queues (WRR 4:1 reads)", hostif.Weighted, true, 4},
	}
	var out TabS6Result
	for _, su := range setups {
		eng := sim.NewEngine()
		dcfg := ssd.MQSimBase()
		dcfg.FTL.Seed = seed
		dev := ssd.NewDevice(eng, dcfg)
		ctl := hostif.NewController(dev, hostif.Config{Arbitration: su.arb, MaxOutstanding: 8})
		heavyQ := ctl.CreateQueue(512, 1)
		lightQ := heavyQ
		if su.separate {
			lightQ = ctl.CreateQueue(64, su.weight)
		}
		rng := rand.New(rand.NewSource(seed))
		size := dev.Size()

		// Prime some data so reads hit flash.
		primeDone := false
		if err := dev.WriteAsync(0, nil, 1<<20, func() { primeDone = true }); err != nil {
			panic(err)
		}
		if err := dev.FlushAsync(nil); err != nil {
			panic(err)
		}
		eng.RunWhile(func() bool { return !primeDone })

		// Heavy tenant: refill its queue whenever it drains below half.
		var refill func()
		deadline := eng.Now() + dur
		refill = func() {
			if eng.Now() >= deadline {
				return
			}
			for heavyQ.Backlog() < 256 {
				err := ctl.Submit(heavyQ, hostif.Request{
					Kind: hostif.OpWrite,
					Off:  rng.Int63n(size/16384) * 16384,
					Len:  16384,
				})
				if err != nil {
					break
				}
			}
			eng.Schedule(sim.Millisecond, refill)
		}
		refill()

		// Light tenant: one 4 KB read every 500 µs from the primed range.
		light := stats.NewLatencyRecorder()
		var tick func()
		tick = func() {
			if eng.Now() >= deadline {
				return
			}
			_ = ctl.Submit(lightQ, hostif.Request{
				Kind: hostif.OpRead, Off: rng.Int63n(256) * 4096, Len: 4096,
				Done: func(l sim.Time) { light.Record(l) },
			})
			eng.Schedule(500*sim.Microsecond, tick)
		}
		tick()
		eng.Run()

		out.Rows = append(out.Rows, TabS6Row{
			Config:    su.name,
			Completed: int64(light.Count()),
			P50:       light.Percentile(50),
			P99:       light.Percentile(99),
			Max:       light.Max(),
		})
	}
	return out
}
