package experiments

import (
	"fmt"
	"sync"

	"ssdtp/internal/fsim"
	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

// Preconditioning cache (DESIGN.md §8). Most experiment wall-clock goes into
// preconditioning — the fig3-family steady-state prefill and the Figure-1
// aged file systems — and many cells recompute the identical image: fig3's
// twelve cells use four distinct FTL designs, tabS7's twelve cells four
// (model, fs) images, and iterated runs repeat all of them. This cache builds
// each distinct (config, preconditioning, seed) image once, snapshots it
// (ssd.DeviceState + fsim.FSImage), and stamps clones onto fresh engines per
// cell. Clones are observationally identical to freshly built devices — the
// tables, traces and metrics of a run do not change with the cache on or off
// (asserted by tests) — because snapshots carry the FTL's in-flight
// background work and RNG stream position, not just the mapping tables.

// precondEntry memoizes one preconditioned image. once guards the build so
// concurrent cells needing the same image block on a single construction.
type precondEntry struct {
	once  sync.Once
	group *precondGroup
	dev   *ssd.DeviceState
	img   fsim.FSImage // nil for device-only (fig3 prefill) entries
	fired int64        // engine events the cached build fired
}

// precondGroup lists the finished device images of one group — one drive
// model at one prefill level, or one aged drive model — in the order they
// were sealed. The prefill images of one group differ only in FTL knobs,
// and many of their chunks hold the same bytes (DESIGN.md §8).
type precondGroup struct {
	images []*ssd.DeviceState // guarded by precondCache's lock
}

// precondCacheCap bounds retained images; overflow resets the whole cache
// (simple, and never hit by the repository's experiment matrix, which needs
// at most 24 concurrent keys).
const precondCacheCap = 32

var precondCache = struct {
	sync.Mutex
	on     bool
	m      map[string]*precondEntry
	groups map[string]*precondGroup
}{on: true, m: map[string]*precondEntry{}, groups: map[string]*precondGroup{}}

// SetSnapshotCache enables or disables the preconditioning cache (the
// -snapshot-cache flag of cmd/reproduce). Toggling drops every retained
// image. The cache is on by default; results are identical either way — off
// trades speed for the lower memory floor of building every cell from
// scratch.
func SetSnapshotCache(on bool) {
	precondCache.Lock()
	defer precondCache.Unlock()
	precondCache.on = on
	precondCache.m = map[string]*precondEntry{}
	precondCache.groups = map[string]*precondGroup{}
}

// precondEntryFor returns the memo entry for key, whose image belongs to
// group, or nil when the cache is disabled (callers then build from
// scratch).
func precondEntryFor(key, group string) *precondEntry {
	precondCache.Lock()
	defer precondCache.Unlock()
	if !precondCache.on {
		return nil
	}
	e, ok := precondCache.m[key]
	if !ok {
		if len(precondCache.m) >= precondCacheCap {
			precondCache.m = map[string]*precondEntry{}
			precondCache.groups = map[string]*precondGroup{}
		}
		g := precondCache.groups[group]
		if g == nil {
			g = &precondGroup{}
			precondCache.groups[group] = g
		}
		e = &precondEntry{group: g}
		precondCache.m[key] = e
	}
	return e
}

// seal points st's chunks at the equal chunks of the group's finished
// images (ssd.DeviceState.Share), adds st to the group and stores it as the
// entry's image. It runs inside e.once, before any cell can restore st, and
// holds the cache's lock throughout, so two builds of one group finishing
// together are still compared with each other and the comparison reads
// sealed images alone.
func (e *precondEntry) seal(st *ssd.DeviceState) {
	precondCache.Lock()
	defer precondCache.Unlock()
	for _, p := range e.group.images {
		st.Share(p)
	}
	e.group.images = append(e.group.images, st)
	e.dev = st
}

// configKey renders a device config into a deterministic cache key. The
// tracers are excluded: they are the only pointer fields, and prefill runs
// traceless (a suspended tracer and a nil one produce identical simulations).
func configKey(cfg ssd.Config) string {
	cfg.Trace = nil
	cfg.FTL.Trace = nil
	return fmt.Sprintf("%+v", cfg)
}

// prefillDevice drives the fig3-family steady-state preconditioning:
// sequential fill of fillPct percent of the logical space, one overwrite
// pass of its first half to mix block ages and create reclaimable space (a
// fully-valid drive gives garbage collection nothing to collect), then a
// flush. It panics, naming the drive and the pass or the flush, if a pass
// completes fewer requests than it issues or the flush fails: a partial
// prefill must not become a cached image.
func prefillDevice(dev *ssd.Device, fillPct int64) {
	const req = 64 * 1024
	fill := dev.Size() * fillPct / 100 / req * req
	for _, pass := range []struct {
		name  string
		bytes int64
	}{{"prefill", fill}, {"prefill2", fill / 2}} {
		res := workload.Run(dev, workload.Spec{
			Name: pass.name, Pattern: workload.Sequential, RequestBytes: req,
			Length: pass.bytes,
		}, workload.Options{MaxRequests: pass.bytes / req})
		if res.Requests != pass.bytes/req {
			panic(fmt.Sprintf("experiments: %s %s completed %d of %d requests",
				dev.Name(), pass.name, res.Requests, pass.bytes/req))
		}
	}
	must(dev.Flush())
}

// must panics on a blocking device call's error. Experiments issue only
// in-range, aligned requests, so an error is a model bug, and a table
// built past it would carry a wrong number.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// prefilledDevice returns a device with cfg in prefilled steady state (the
// fig3-family 85% fill), bound to tr.
func prefilledDevice(cfg ssd.Config, tr *obs.Tracer) *ssd.Device {
	return prefilledDeviceFrac(cfg, tr, 85)
}

// prefilledDeviceFrac is prefilledDevice with a caller-chosen fill level —
// the fleet experiment mixes fill levels to model drives of different ages.
// With the cache on, the prefill image for this exact (config, fill) pair is
// built once (traceless) and restored onto a fresh engine; otherwise the
// device is prefilled from scratch with tr suspended for the
// (identical-per-config) priming traffic.
func prefilledDeviceFrac(cfg ssd.Config, tr *obs.Tracer, fillPct int64) *ssd.Device {
	key := fmt.Sprintf("prefill|%d|%s", fillPct, configKey(cfg))
	if e := precondEntryFor(key, fmt.Sprintf("prefill|%d|%s", fillPct, cfg.Name)); e != nil {
		e.once.Do(func() {
			// Build under a suspended throwaway tracer: it records nothing
			// (matching the uncached path's suspended prefill) but its engine
			// hook counts the prefill's fired events, which clones credit
			// back so their engine metrics match a from-scratch build.
			btr := obs.NewTracer("")
			btr.Suspend()
			build := cfg
			build.Trace = btr
			dev := ssd.NewDevice(sim.NewEngine(), build)
			prefillDevice(dev, fillPct)
			e.seal(dev.Snapshot())
			e.fired = btr.EventsFired()
		})
		cfg.Trace = tr
		dev := ssd.NewDevice(sim.NewEngine(), cfg)
		dev.Restore(e.dev)
		tr.AddEventsFired(e.fired)
		return dev
	}
	cfg.Trace = tr
	tr.Suspend()
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	prefillDevice(dev, fillPct)
	tr.Resume()
	return dev
}

// agedFS returns (file system, device) with a freshly formatted fs of the
// given kind aged per prof on a fig1-model device. With the cache on, the
// aged (device, fs) pair is built once per (model, kind, profile, seed) and
// each caller gets an independent clone; the fig1 and tabS7 matrices share
// entries where their parameters coincide.
func agedFS(model, kind string, prof fsim.AgingProfile, seed int64) (fsim.FS, *ssd.Device) {
	build := func(dev *ssd.Device) fsim.FS {
		disk := fsim.NewSSDDisk(dev)
		var fs fsim.FS
		if kind == "extfs" {
			fs = fsim.NewExtFS(disk)
		} else {
			fs = fsim.NewLogFS(disk)
		}
		fsim.Age(fs, prof, seed)
		return fs
	}
	key := fmt.Sprintf("aged|%s|%s|%s|%d", model, kind, prof, seed)
	if e := precondEntryFor(key, "aged|"+model); e != nil {
		e.once.Do(func() {
			dev := ssd.NewDevice(sim.NewEngine(), fig1Config(model, seed))
			fs := build(dev)
			e.seal(dev.Snapshot())
			e.img = fs.(interface{ Snapshot() fsim.FSImage }).Snapshot()
		})
		dev := ssd.NewDevice(sim.NewEngine(), fig1Config(model, seed))
		dev.Restore(e.dev)
		return e.img.Materialize(fsim.NewSSDDisk(dev)), dev
	}
	dev := ssd.NewDevice(sim.NewEngine(), fig1Config(model, seed))
	return build(dev), dev
}
