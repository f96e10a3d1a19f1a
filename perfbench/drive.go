package main

import (
	"errors"
	"fmt"

	"ssdtp/internal/cow"
	"ssdtp/internal/ftl"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

// The drive workload puts one fig3 baseline drive, preconditioned like fig3,
// under a closed-loop 4 KiB load. Every rep restores the same image onto a
// fresh engine and replays the same seed, so every rep simulates the same
// requests and must produce the same outputs.

// driveBlockScale multiplies ssd.MQSimBase's BlocksPerPlane so that one image
// build takes about 0.2 s: long enough to time steadily.
const driveBlockScale = 8

// driveWriteDur is the simulated length of one rep's load: enough that a rep
// takes a tenth of a host second and reaches garbage collection.
const driveWriteDur = 6 * sim.Second

// driveConfig is the fig3 baseline drive at benchmark scale.
func driveConfig(seed int64) ssd.Config {
	cfg := ssd.MQSimBase()
	cfg.Geometry.BlocksPerPlane *= driveBlockScale
	cfg.FTL.Seed = seed
	return cfg
}

// driveBench is a drive workload: drive-gc-write, or a smaller one in tests.
type driveBench struct {
	cfg  ssd.Config
	spec workload.Spec
	dur  sim.Time
	// wantGC requires garbage collection to run during every rep.
	wantGC bool
	img    *ssd.DeviceState
	base   ftl.Counters // the image's FTL counters
}

func newDriveGCWrite(seed int64) bench {
	return &driveBench{cfg: driveConfig(seed), dur: driveWriteDur, wantGC: true,
		spec: workload.Spec{Name: "gc-write", Pattern: workload.Uniform, RequestBytes: 4096, QueueDepth: 8, Seed: seed}}
}

// prefill preconditions dev like the fig3 family: a sequential fill of
// fillPct percent of the logical space in 64 KiB writes, one overwrite of
// its first half, then a flush, which leaves the device drained.
func prefill(dev *ssd.Device, fillPct int64) error {
	const req = 64 << 10
	fill := dev.Size() * fillPct / 100 / req * req
	for _, n := range []int64{fill, fill / 2} {
		res := workload.Run(dev, workload.Spec{Name: "prefill", Pattern: workload.Sequential, RequestBytes: req, Length: n},
			workload.Options{MaxRequests: n / req})
		if res.Requests != n/req {
			return fmt.Errorf("%w: prefill completed %d of %d requests", ssd.ErrStalled, res.Requests, n/req)
		}
	}
	done := false
	if err := dev.FlushAsync(func() { done = true }); err != nil {
		return err
	}
	if dev.Engine().RunWhile(func() bool { return !done }) {
		return fmt.Errorf("prefill flush: %w", ssd.ErrStalled)
	}
	return nil
}

func (d *driveBench) setup(*ledger) error {
	dev := ssd.NewDevice(sim.NewEngine(), d.cfg)
	if err := prefill(dev, 85); err != nil {
		return err
	}
	d.img = dev.Snapshot()
	d.base = dev.FTL().Counters()
	return nil
}

func (d *driveBench) iso() (ssd.Config, *ssd.DeviceState, error) { return d.cfg, d.img, nil }

func (d *driveBench) rep(m mode, l *ledger, timed func(func())) (outcome, error) {
	dev := ssd.NewDevice(sim.NewEngine(), d.cfg)
	dev.Restore(d.img)
	eng := dev.Engine()
	before := usageOf(dev)
	var target workload.Target = dev
	var events int64
	peak := 0
	switch m {
	case modeCount:
		eng.SetHook(countHook(&events, &peak))
	case modeTraced:
		target = l.wrap(dev, "ssd")
		l.hookEngine(eng)
	}
	var res workload.Result
	timed(func() { res = workload.Run(target, d.spec, workload.Options{Duration: d.dur}) })
	unhook(eng, l)
	o := outcome{reqs: res.Requests, cells: 1, units: res.Requests, simNS: float64(res.Duration), events: events, keep: dev}
	c := dev.FTL().Counters()
	if err := d.check(res, c); err != nil {
		return o, err
	}
	o.fp = fmt.Sprintf("requests=%d p50=%d p99=%d max=%d scheduled=%d ftl={%s}",
		res.Requests, res.Latency.Percentile(50), res.Latency.Percentile(99), res.Latency.Max(), scheduled(eng), counterPrint(c))
	o.counts = layerCounts(usageOf(dev).minus(before), res.Requests, float64(res.Duration), dev.MemStats(), dev)
	o.counts["sim.pending_peak"] = float64(peak)
	o.counts["stats.records_per_req"] = 1
	return o, nil
}

// check fails a rep that stalled — its load ended before the deadline, or a
// submitted request never completed — or, on drive-gc-write, never collected
// garbage.
func (d *driveBench) check(res workload.Result, c ftl.Counters) error {
	if res.Duration < d.dur {
		return fmt.Errorf("%w: load ended at %d of %d simulated ns", ssd.ErrStalled, res.Duration, d.dur)
	}
	submitted := c.HostWriteRequests + c.HostReadRequests - d.base.HostWriteRequests - d.base.HostReadRequests
	if submitted != res.Requests {
		return fmt.Errorf("%w: %d requests submitted, %d completed", ssd.ErrStalled, submitted, res.Requests)
	}
	if d.wantGC && c.GCRuns == d.base.GCRuns {
		return errors.New("no garbage collection ran: the load is not in GC steady state")
	}
	return nil
}

// counterPrint renders the FTL counters the output check compares, each by
// name. The list is fixed here rather than formatted from the struct, so that
// a counter added to ftl.Counters leaves the pinned fingerprints unchanged.
func counterPrint(c ftl.Counters) string {
	return fmt.Sprintf("host_writes=%d host_reads=%d sectors_written=%d sectors_read=%d trimmed=%d "+
		"cache_hits=%d cache_read_hits=%d cache_evictions=%d "+
		"data_pages=%d gc_pages=%d map_pages=%d parity_pages=%d pslc_pages=%d "+
		"page_reads=%d gc_page_reads=%d mount_reads=%d "+
		"erases=%d gc_runs=%d gc_valid_moved=%d padded=%d "+
		"scrub_reads=%d refresh_pages=%d uncorrectable=%d grown_bad=%d wear_level=%d",
		c.HostWriteRequests, c.HostReadRequests, c.HostSectorsWritten, c.HostSectorsRead, c.TrimmedSectors,
		c.CacheHits, c.CacheReadHits, c.CacheEvictions,
		c.DataPagesProgrammed, c.GCPagesProgrammed, c.MapPagesProgrammed, c.ParityPagesProgrammed, c.PSLCPagesProgrammed,
		c.PageReads, c.GCPageReads, c.MountReads,
		c.Erases, c.GCRuns, c.GCValidMoved, c.PaddedSectors,
		c.ScrubReads, c.RefreshPagesProgrammed, c.UncorrectableReads, c.GrownBadBlocks, c.WearLevelRelocations)
}

// scheduled returns how many events eng has scheduled since it was created
// (its sequence counter). Unlike a fired-event count it needs no hook.
func scheduled(eng *sim.Engine) uint64 {
	ev := eng.Schedule(0, func() {})
	defer ev.Cancel()
	return ev.Seq() - 1
}

// countHook returns an engine hook counting fired events and tracking the
// pending-queue peak.
func countHook(events *int64, peak *int) sim.Hook {
	return func(_ sim.Time, pending int) {
		*events++
		if pending > *peak {
			*peak = pending
		}
	}
}

// usage is the layer accounting of a set of drives at one instant.
type usage struct {
	writes, reads      int64 // host requests the FTLs accepted
	sectorsW, sectorsR int64
	cacheHits          int64 // write-cache and read-cache hits
	pages, gcPages     int64 // flash pages programmed, all and GC output
	erases             int64
	pageReads          int64 // flash page reads, host demand and GC input
	busBusy, busWait   sim.Time
	busWaits           int64
	channels           int
}

func usageOf(devs ...*ssd.Device) usage {
	var u usage
	for _, d := range devs {
		c := d.FTL().Counters()
		u.writes += c.HostWriteRequests
		u.reads += c.HostReadRequests
		u.sectorsW += c.HostSectorsWritten
		u.sectorsR += c.HostSectorsRead
		u.cacheHits += c.CacheHits + c.CacheReadHits
		u.pages += c.PagesProgrammed()
		u.gcPages += c.GCPagesProgrammed
		u.erases += c.Erases
		u.pageReads += c.PageReads + c.GCPageReads
		a := d.Array()
		for ch := 0; ch < a.Channels(); ch++ {
			b := a.Bus(ch)
			u.busBusy += b.Utilization()
			u.busWait += b.WaitTime()
			u.busWaits += b.Waits()
		}
		u.channels += a.Channels()
	}
	return u
}

// minus returns the accounting accrued since o.
func (u usage) minus(o usage) usage {
	u.writes -= o.writes
	u.reads -= o.reads
	u.sectorsW -= o.sectorsW
	u.sectorsR -= o.sectorsR
	u.cacheHits -= o.cacheHits
	u.pages -= o.pages
	u.gcPages -= o.gcPages
	u.erases -= o.erases
	u.pageReads -= o.pageReads
	u.busBusy -= o.busBusy
	u.busWait -= o.busWait
	u.busWaits -= o.busWaits
	return u
}

// layerCounts turns one rep's accrued accounting into the ledger's exact
// per-request counts. driveNS is one drive's simulated run time; dev gives
// the page and sector sizes.
func layerCounts(u usage, reqs int64, driveNS float64, mem cow.Stats, dev *ssd.Device) map[string]float64 {
	r := float64(reqs)
	page := float64(dev.FTL().Config().Geometry.PageSize)
	sector := float64(dev.SectorSize())
	return map[string]float64{
		"ftl.writes_per_req":     ratio(float64(u.writes), r),
		"ftl.reads_per_req":      ratio(float64(u.reads), r),
		"ftl.pages_per_req":      ratio(float64(u.pages), r),
		"ftl.gc_pages_per_req":   ratio(float64(u.gcPages), r),
		"ftl.erases_per_req":     ratio(float64(u.erases), r),
		"ftl.page_reads_per_req": ratio(float64(u.pageReads), r),
		"ftl.waf":                ratio(float64(u.pages)*page, float64(u.sectorsW)*sector),
		"ftl.cache_hit_frac":     ratio(float64(u.cacheHits), float64(u.sectorsW+u.sectorsR)),
		"onfi.busy_frac":         ratio(float64(u.busBusy), float64(u.channels)*driveNS),
		"onfi.wait_ns_per_wait":  ratio(float64(u.busWait), float64(u.busWaits)),
		"cow.copies_per_req":     ratio(float64(mem.CowCopies), r),
		"cow.owned_mb":           float64(mem.OwnedBytes) / 1e6,
	}
}
