package experiments

import (
	"fmt"

	"ssdtp/internal/ftl"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
	"ssdtp/internal/workload"
)

// TabS5Row is one FTL policy's endurance outcome.
type TabS5Row struct {
	Policy        ftl.GCPolicy
	WearLeveling  bool
	HostMBWritten float64
	NANDPages     int64
	WAF           float64
	BadBlocks     int64
	MaxErase      int
}

// label names the row.
func (r TabS5Row) label() string {
	if r.WearLeveling {
		return fmt.Sprintf("%v + static WL", r.Policy)
	}
	return r.Policy.String()
}

// TabS5Result is the endurance study: how long each garbage-collection
// policy keeps a wear-limited device alive under identical host traffic.
// The paper's §2 argument — FTL lifetime mechanisms are invisible yet
// decisive — in one table; methodology follows Boboila & Desnoyers' write-
// endurance reverse engineering (ref [80]).
type TabS5Result struct {
	WearLimit int
	Rows      []TabS5Row
}

// Table renders the study.
func (r TabS5Result) Table() string {
	t := stats.NewTable("GC policy", "host MB before wear-out", "WAF", "bad blocks", "max erase")
	for _, row := range r.Rows {
		t.AddRow(row.label(), row.HostMBWritten, row.WAF, row.BadBlocks, row.MaxErase)
	}
	best, worst := 0.0, 0.0
	for i, row := range r.Rows {
		if i == 0 || row.HostMBWritten > best {
			best = row.HostMBWritten
		}
		if i == 0 || row.HostMBWritten < worst {
			worst = row.HostMBWritten
		}
	}
	ratio := 0.0
	if worst > 0 {
		ratio = best / worst
	}
	return t.String() + fmt.Sprintf("endurance limit %d erases/block: best policy lasts %.2fx longer than worst\n",
		r.WearLimit, ratio)
}

// TabS5Endurance writes hotspot traffic into a wear-limited device under
// each GC policy until blocks start dying, and reports how much host data
// each policy sustained. The four policy variants wear out independent
// devices under identical traffic; they fan out on the runner pool (and
// are the longest cells in the suite, so the win is largest here).
func TabS5Endurance(scale Scale, seed int64) TabS5Result {
	wearLimit := int(scale.pick(8, 20))
	type variant struct {
		policy ftl.GCPolicy
		wl     bool
	}
	variants := []variant{
		{ftl.GCGreedy, false},
		{ftl.GCGreedy, true},
		{ftl.GCRandGreedy, false},
		{ftl.GCFIFO, false},
	}
	var cells []runner.Task[TabS5Row]
	for _, v := range variants {
		v := v
		label := fmt.Sprintf("tabS5/%v", v.policy)
		if v.wl {
			label += "+wl"
		}
		cells = append(cells, runner.Cell(label, func() TabS5Row {
			cfg := ssd.MQSimBase()
			cfg.Geometry.BlocksPerPlane = 12
			cfg.FTL.CacheBytes = 512 * 1024 // small cache: wear reaches flash
			cfg.FTL.GC = v.policy
			cfg.FTL.GCSample = 2
			cfg.FTL.Seed = seed
			cfg.WearLimit = wearLimit
			if v.wl {
				cfg.FTL.WearLevelThreshold = 3
				cfg.FTL.IdleGC = true
				cfg.FTL.IdleDelay = int64(2 * sim.Millisecond)
			}
			dev := ssd.NewDevice(sim.NewEngine(), cfg)

			row := TabS5Row{Policy: v.policy, WearLeveling: v.wl}
			spec := workload.Spec{
				Name: "endurance", Pattern: workload.Hotspot, RequestBytes: 4096,
				QueueDepth: 4, Seed: seed,
			}
			// Write in slices until bad blocks appear (or a hard cap).
			for rounds := 0; rounds < 1500; rounds++ {
				workload.Run(dev, spec, workload.Options{Duration: 50 * sim.Millisecond})
				c := dev.FTL().Counters()
				if c.GrownBadBlocks >= 4 {
					break
				}
			}
			must(dev.Flush())
			c := dev.FTL().Counters()
			row.HostMBWritten = float64(c.HostSectorsWritten) * 4096 / 1e6
			row.NANDPages = c.PagesProgrammed()
			if c.HostSectorsWritten > 0 {
				row.WAF = float64(c.PagesProgrammed()*16384) / float64(c.HostSectorsWritten*4096)
			}
			row.BadBlocks = c.GrownBadBlocks
			row.MaxErase, _ = dev.Array().WearStats()
			return row
		}))
	}
	return TabS5Result{WearLimit: wearLimit, Rows: runner.Map(pool(), cells)}
}
