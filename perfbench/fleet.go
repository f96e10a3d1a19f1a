package main

import (
	"fmt"
	"strings"

	"ssdtp/internal/cow"
	"ssdtp/internal/fleet"
	"ssdtp/internal/ftl"
	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

// The fleet-256 workload is the fleet experiment's tier (FleetTail in
// internal/experiments) at 256 drives: its two drive models at its two fill
// levels, its four tenants and their traffic, full striping, and the serial
// pump.

const (
	fleetDrives  = 256
	fleetTenants = 4
	fleetStripe  = 256 << 10
	fleetModels  = 2
	// fleetDur is the simulated length of a rep's load, about 4000 requests
	// per tenant. A fixed request count instead would leave the simulated
	// time, and with it drive_s_per_s, to vary by a third between seeds.
	fleetDur = 60 * sim.Millisecond
)

// fleetFills are the preconditioned fill levels drives cycle through.
var fleetFills = [2]int64{50, 85}

// fleetFTLSeed seeds every fleet drive's FTL, whatever the workload seed;
// the workload seed drives the tenants' traffic. Seeded from the workload
// seed, the FTLs of 2 in 8 seeds reached garbage collection within the load,
// and a rep's requests varied by 15 % and its engine events by 20 % between
// seeds; with one FTL seed they vary by 4 % and 8 %.
const fleetFTLSeed = defaultSeed

// fleetDriveConfig is FleetTail's drive model (the fig3 baseline shrunk to
// two channels and eight blocks per plane, with more over-provisioning) with
// its blocks scaled like the drive workloads', so that building the four
// images takes long enough to time.
func fleetDriveConfig(model int) ssd.Config {
	cfg := ssd.MQSimBase()
	cfg.Channels = 2
	cfg.Geometry.BlocksPerPlane = 8 * driveBlockScale
	cfg.FTL.OverProvision = 0.25
	cfg.FTL.Seed = fleetFTLSeed
	if model == 0 {
		cfg.Name = "fleet-a"
	} else {
		cfg.Name = "fleet-b"
		cfg.FTL.CacheBytes = 1 << 20
		cfg.FTL.GC = ftl.GCRandGreedy
		cfg.FTL.GCSample = 4
	}
	return cfg
}

type fleetBench struct {
	seed int64
	imgs [fleetModels][len(fleetFills)]*ssd.DeviceState
}

func newFleetBench(seed int64) bench { return &fleetBench{seed: seed} }

// setup builds the four images, then one tier from them: set-up covers the
// image builds, the 256 clones and the volume layout.
func (f *fleetBench) setup(*ledger) error {
	for model := range f.imgs {
		for i, fill := range fleetFills {
			dev := ssd.NewDevice(sim.NewEngine(), fleetDriveConfig(model))
			if err := prefill(dev, fill); err != nil {
				return err
			}
			f.imgs[model][i] = dev.Snapshot()
		}
	}
	_, err := f.tier()
	return err
}

func (f *fleetBench) iso() (ssd.Config, *ssd.DeviceState, error) {
	return fleetDriveConfig(0), f.imgs[0][1], nil
}

// fleetTier is one freshly cloned tier and its tenant volumes.
type fleetTier struct {
	fl   *fleet.Fleet
	devs []*ssd.Device
	trs  []*obs.Tracer
	vols []*fleet.Volume
}

// tier clones every drive from its image onto a fresh engine, assembles the
// fleet and carves the tenants' volumes. As in FleetTail, each drive gets a
// one-record tracer: it buffers nothing but keeps the latency profiler whose
// rows feed the fleet's blast-radius accounting.
func (f *fleetBench) tier() (*fleetTier, error) {
	t := &fleetTier{devs: make([]*ssd.Device, fleetDrives), trs: make([]*obs.Tracer, fleetDrives)}
	for i := range t.devs {
		model := i % fleetModels
		cfg := fleetDriveConfig(model)
		t.trs[i] = obs.NewTracer(fmt.Sprintf("drive%03d", i))
		t.trs[i].SetRecordCap(1)
		cfg.Trace = t.trs[i]
		t.devs[i] = ssd.NewDevice(sim.NewEngine(), cfg)
		t.devs[i].Restore(f.imgs[model][(i/2)%len(fleetFills)])
	}
	t.fl = fleet.New(sim.NewEngine(), t.devs, fleetStripe)
	pl := fleet.StripeAll(fleetDrives)
	groups := make([][]int, fleetTenants)
	for i := range groups {
		groups[i] = pl.Group(i)
	}
	size := volumeBytes(t.devs[0].Size(), groups)
	for i, g := range groups {
		v, err := t.fl.AddVolume(fmt.Sprintf("t%d", i), g, size)
		if err != nil {
			return nil, err
		}
		t.vols = append(t.vols, v)
	}
	return t, nil
}

// volumeBytes sizes every tenant volume so each drive holds all of its
// tenants' extents, by FleetTail's rule.
func volumeBytes(driveSize int64, groups [][]int) int64 {
	loads := make([]int64, fleetDrives)
	for _, g := range groups {
		for _, d := range g {
			loads[d]++
		}
	}
	g := int64(len(groups[0]))
	best := int64(1) << 62
	for _, l := range loads {
		if l == 0 {
			continue
		}
		if b := g * (driveSize/l - fleetStripe); b < best {
			best = b
		}
	}
	if best < fleetStripe {
		return fleetStripe
	}
	return best / fleetStripe * fleetStripe
}

// fleetSpecs is FleetTail's tenant mix: a 4 KiB random writer, a 64 KiB
// sequential writer, a 50 % read hotspot and a 70 % read uniform mix.
func fleetSpecs(vols []*fleet.Volume, seed int64) []workload.Spec {
	mk := func(t int, s workload.Spec) workload.Spec {
		s.Name = vols[t].Name()
		s.Seed = runner.CellSeed(seed, uint64(1000+t))
		return s
	}
	return []workload.Spec{
		mk(0, workload.Spec{Pattern: workload.Uniform, RequestBytes: 4096, QueueDepth: 4}),
		mk(1, workload.Spec{Pattern: workload.Sequential, RequestBytes: 64 << 10, QueueDepth: 8}),
		mk(2, workload.Spec{Pattern: workload.Hotspot, RequestBytes: 16 << 10, QueueDepth: 4, ReadFrac: 0.5}),
		mk(3, workload.Spec{Pattern: workload.Uniform, RequestBytes: 16 << 10, QueueDepth: 4, ReadFrac: 0.7}),
	}
}

func (f *fleetBench) rep(m mode, l *ledger, timed func(func())) (outcome, error) {
	t, err := f.tier()
	if err != nil {
		return outcome{}, err
	}
	host := t.fl.Engine()
	before := usageOf(t.devs...)
	targets := make([]workload.Target, len(t.vols))
	for i, v := range t.vols {
		targets[i] = v
		if m == modeTraced {
			targets[i] = l.wrap(v, "fleet")
		}
	}
	var hostEvents int64
	peak := 0
	switch m {
	case modeCount:
		host.SetHook(countHook(&hostEvents, &peak))
	case modeTraced:
		l.hookEngine(host)
	}
	var res []workload.Result
	timed(func() {
		res = workload.RunMulti(targets, fleetSpecs(t.vols, f.seed), workload.Options{Duration: fleetDur})
	})
	unhook(host, l)
	o := outcome{cells: 1, keep: t}
	var fp strings.Builder
	for i, v := range t.vols {
		r := v.Report()
		if res[i].Duration < fleetDur || r.Requests != res[i].Requests {
			return o, fmt.Errorf("%w: tenant %s: load ended at %d of %d simulated ns; the volume completed %d requests, its generator saw %d",
				ssd.ErrStalled, r.Tenant, res[i].Duration, fleetDur, r.Requests, res[i].Requests)
		}
		o.reqs += r.Requests
		// Named fields, not the whole struct: a field added to the report
		// leaves the pinned fingerprints unchanged.
		fmt.Fprintf(&fp, "%s: drives=%d shared=%d requests=%d p50=%d p95=%d p99=%d p999=%d tail=%d tail_gc_ppm=%d blast_ppm=%d; ",
			r.Tenant, r.Drives, r.SharedDrives, r.Requests, r.P50, r.P95, r.P99, r.P999, r.TailThreshold, r.TailGCSharePPM, r.BlastPPM)
	}
	var driveEvents int64
	var mem cow.Stats
	for i, d := range t.devs {
		driveEvents += t.trs[i].EventsFired()
		mem.Add(d.MemStats())
	}
	use := usageOf(t.devs...).minus(before)
	fmt.Fprintf(&fp, "drives: writes=%d reads=%d sectors_written=%d sectors_read=%d cache_hits=%d pages=%d gc_pages=%d "+
		"erases=%d page_reads=%d bus_busy=%d bus_wait=%d bus_waits=%d drive_events=%d host_scheduled=%d",
		use.writes, use.reads, use.sectorsW, use.sectorsR, use.cacheHits, use.pages, use.gcPages,
		use.erases, use.pageReads, use.busBusy, use.busWait, use.busWaits, driveEvents, scheduled(host))
	dur := float64(res[0].Duration)
	o.fp = fp.String()
	o.units = o.reqs
	o.simNS = fleetDrives * dur
	o.events = hostEvents + driveEvents
	o.counts = layerCounts(use, o.reqs, dur, mem, t.devs[0])
	reqs := float64(o.reqs)
	o.counts["sim.pending_peak"] = float64(peak)
	o.counts["stats.records_per_req"] = 2 // the generator's recorder and the volume's
	o.counts["fleet.host_events_per_req"] = ratio(float64(hostEvents), reqs)
	o.counts["fleet.drive_events_per_req"] = ratio(float64(driveEvents), reqs)
	o.counts["fleet.resident_mb"] = float64(t.fl.MemReport().ResidentBytes) / 1e6
	return o, nil
}
