package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"

	"ssdtp/internal/ftl"
	"ssdtp/internal/nand"
	"ssdtp/internal/onfi"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
)

// isoCosts are host costs of single operations of layers driven alone
// through their public APIs, on the workload's drive model. They are self
// costs: the engine events and NAND calls inside an operation are
// subtracted, so that weighted by how often each operation runs per request
// the layers add up without counting a nested layer twice.
type isoCosts struct {
	stepNS                                 float64 // sim: one Schedule and one Step
	recordNS                               float64 // stats: one LatencyRecorder.Record
	percentileMS                           float64 // stats: p50, p99 and max over one rep's samples
	ftlWriteNS, ftlReadNS                  float64 // ftl: one 4 KiB host request
	onfiReadNS, onfiProgramNS, onfiEraseNS float64
	nandReadNS, nandProgramNS, nandEraseNS float64
	snapshotMS, restoreUS                  float64 // cow: Device.Snapshot of a clone, Device.Restore
}

// isoRepeats is how many times each iso loop runs; its cost is the median.
const isoRepeats = 3

// measureIso measures every layer alone. depth is the queue depth the
// workload's engine peaked at and samples its requests per rep.
func measureIso(cfg ssd.Config, img *ssd.DeviceState, depth int, samples int64, seed int64) (isoCosts, error) {
	var c isoCosts
	var err error
	c.stepNS = isoStep(depth)
	c.recordNS, c.percentileMS = isoStats(int(samples))
	if c.nandReadNS, c.nandProgramNS, c.nandEraseNS, err = isoNAND(cfg.Geometry); err != nil {
		return c, fmt.Errorf("iso nand: %w", err)
	}
	if err = isoONFI(cfg, &c); err != nil {
		return c, fmt.Errorf("iso onfi: %w", err)
	}
	if c.ftlWriteNS, c.ftlReadNS, err = isoFTL(cfg, seed); err != nil {
		return c, fmt.Errorf("iso ftl: %w", err)
	}
	c.snapshotMS, c.restoreUS = isoCOW(cfg, img)
	return c, nil
}

// lcg is a deterministic pseudo-random sequence for iso inputs.
type lcg uint64

func (x *lcg) below(n int64) int64 {
	*x = *x*6364136223846793005 + 1442695040888963407
	return int64(uint64(*x)>>33) % n
}

func nsPer(t0 time.Time, n int) float64 { return float64(time.Since(t0).Nanoseconds()) / float64(n) }

func medianRuns(f func() float64) float64 {
	xs := make([]float64, isoRepeats)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// isoStep times a Schedule and a Step on an engine holding depth pending
// events.
func isoStep(depth int) float64 {
	if depth < 1 {
		depth = 64
	}
	eng := sim.NewEngine()
	fn := func() {}
	x := lcg(1)
	for i := 0; i < depth; i++ {
		eng.Schedule(x.below(int64(sim.Millisecond)), fn)
	}
	const n = 1 << 20
	return medianRuns(func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			eng.Schedule(x.below(int64(sim.Millisecond)), fn)
			eng.Step()
		}
		return nsPer(t0, n)
	})
}

// engineLoop counts the events an engine fires and the deepest its queue
// gets, so that the engine's share can be taken out of a loop's cost.
type engineLoop struct {
	events int64
	peak   int
}

func newEngineLoop(eng *sim.Engine) *engineLoop {
	lp := &engineLoop{}
	eng.SetHook(countHook(&lp.events, &lp.peak))
	return lp
}

// selfNS times run, which performs ops operations, and returns host ns per
// operation less one Schedule and Step per fired event, timed at the queue
// depth this run peaked at.
func (lp *engineLoop) selfNS(ops int, run func()) float64 {
	ev0 := lp.events
	lp.peak = 0
	t0 := time.Now()
	run()
	el := float64(time.Since(t0).Nanoseconds())
	return (el - float64(lp.events-ev0)*isoStep(lp.peak)) / float64(ops)
}

// isoStats times LatencyRecorder.Record into a fresh recorder, and reading
// p50, p99 and max from samples values.
func isoStats(samples int) (recordNS, percentileMS float64) {
	if samples < 1<<10 {
		samples = 1 << 10
	}
	x := lcg(2)
	var pct []float64
	recordNS = medianRuns(func() float64 {
		r := stats.NewLatencyRecorder()
		t0 := time.Now()
		for i := 0; i < samples; i++ {
			r.Record(x.below(int64(10 * sim.Millisecond)))
		}
		ns := nsPer(t0, samples)
		t1 := time.Now()
		r.Percentile(50)
		r.Percentile(99)
		r.Max()
		pct = append(pct, float64(time.Since(t1).Nanoseconds())/1e6)
		return ns
	})
	return recordNS, median(pct)
}

// isoBlocksPerPlane caps the blocks the NAND and ONFI loops walk, keeping
// each loop near ten thousand operations.
const isoBlocksPerPlane = 32

func isoGeometry(g nand.Geometry) nand.Geometry {
	if g.BlocksPerPlane > isoBlocksPerPlane {
		g.BlocksPerPlane = isoBlocksPerPlane
	}
	return g
}

// rounds lists a chip's addresses in program order, grouped so that round k
// holds the k-th page (or, with pages false, block) of every die and plane:
// one round's operations may all be in flight together.
func rounds(g nand.Geometry, pages bool) [][]nand.Addr {
	perBlock := g.PagesPerBlock
	if !pages {
		perBlock = 1
	}
	var out [][]nand.Addr
	for b := 0; b < g.BlocksPerPlane; b++ {
		for pg := 0; pg < perBlock; pg++ {
			var r []nand.Addr
			for d := 0; d < g.Dies; d++ {
				for p := 0; p < g.Planes; p++ {
					r = append(r, nand.Addr{Die: d, Plane: p, Block: b, Page: pg})
				}
			}
			out = append(out, r)
		}
	}
	return out
}

func flatten(rs [][]nand.Addr) []nand.Addr {
	var out []nand.Addr
	for _, r := range rs {
		out = append(out, r...)
	}
	return out
}

// isoNAND times direct nand.Chip calls: a program of every page in order, a
// read of every page, then an erase of every block.
func isoNAND(g nand.Geometry) (readNS, programNS, eraseNS float64, err error) {
	g = isoGeometry(g)
	chip := nand.NewChip(nand.ChipConfig{Geometry: g})
	pages, blocks := flatten(rounds(g, true)), flatten(rounds(g, false))
	var rs, ps, es []float64
	for i := 0; i < isoRepeats; i++ {
		t0 := time.Now()
		for _, a := range pages {
			if err = chip.Program(a, nil); err != nil {
				return
			}
		}
		ps = append(ps, nsPer(t0, len(pages)))
		t0 = time.Now()
		for _, a := range pages {
			if err = chip.Read(a, nil); err != nil {
				return
			}
		}
		rs = append(rs, nsPer(t0, len(pages)))
		t0 = time.Now()
		for _, a := range blocks {
			if err = chip.Erase(a); err != nil {
				return
			}
		}
		es = append(es, nsPer(t0, len(blocks)))
	}
	return median(rs), median(ps), median(es), nil
}

// isoONFI drives one channel bus of real chips through the same program,
// read and erase sequences, a round at a time, and keeps the bus's own
// share: the NAND call and the engine steps inside each operation are
// subtracted. c must already hold the NAND costs.
func isoONFI(cfg ssd.Config, c *isoCosts) error {
	g := isoGeometry(cfg.Geometry)
	eng := sim.NewEngine()
	lp := newEngineLoop(eng)
	chips := make([]*nand.Chip, cfg.ChipsPerChannel)
	for i := range chips {
		chips[i] = nand.NewChip(nand.ChipConfig{Geometry: g})
	}
	bus := onfi.NewBus(eng, 0, cfg.Timing, chips...)
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	readDone := func(_ int, err error) { check(err) }
	each := func(rs [][]nand.Addr, nandNS float64, issue func(chip int, a nand.Addr)) float64 {
		n := 0
		for _, r := range rs {
			n += len(r) * len(chips)
		}
		return lp.selfNS(n, func() {
			for _, r := range rs {
				for chip := range chips {
					for _, a := range r {
						issue(chip, a)
					}
				}
				eng.Run()
			}
		}) - nandNS
	}
	pages, blocks := rounds(g, true), rounds(g, false)
	var rs, ps, es []float64
	for i := 0; i < isoRepeats; i++ {
		ps = append(ps, each(pages, c.nandProgramNS, func(chip int, a nand.Addr) { bus.Program(chip, a, nil, check) }))
		rs = append(rs, each(pages, c.nandReadNS, func(chip int, a nand.Addr) { bus.ReadEx(chip, a, nil, readDone) }))
		es = append(es, each(blocks, c.nandEraseNS, func(chip int, a nand.Addr) { bus.Erase(chip, a, check) }))
	}
	c.onfiProgramNS, c.onfiReadNS, c.onfiEraseNS = median(ps), median(rs), median(es)
	return failed
}

// ftlConfig is the FTL configuration ssd.NewDevice derives from cfg.
func ftlConfig(cfg ssd.Config) ftl.Config {
	fc := cfg.FTL
	fc.Geometry = cfg.Geometry
	fc.Channels = cfg.Channels
	fc.ChipsPerChannel = cfg.ChipsPerChannel
	fc.Trace = nil
	if fc.SectorSize == 0 {
		fc.SectorSize = 4096
	}
	return fc
}

// isoFTL drives ftl.New alone over fakeFlash: preconditioned like the drive
// images (an 85 % sequential fill in 64 KiB writes, its first half written
// again, a flush), then 4 KiB uniform random writes at queue depth 8 and
// reads at 32. A cost is host ns per request less one engine step per event
// (flash and request completions).
func isoFTL(cfg ssd.Config, seed int64) (writeNS, readNS float64, err error) {
	eng := sim.NewEngine()
	lp := newEngineLoop(eng)
	f := ftl.New(eng, newFakeFlash(eng, cfg), ftlConfig(cfg))
	const chunk = 16 // sectors per 64 KiB write
	fill := f.LogicalSectors() * 85 / 100 / chunk * chunk
	for _, n := range []int64{fill, fill / 2} {
		if err = closedLoop(eng, int(n/chunk), 8, func(i int, done func()) error {
			return f.Write(int64(i)*chunk, chunk, done)
		}); err != nil {
			return 0, 0, err
		}
	}
	flushed := false
	f.Flush(func() { flushed = true })
	if eng.RunWhile(func() bool { return !flushed }) {
		return 0, 0, fmt.Errorf("flush: %w", ssd.ErrStalled)
	}
	x := lcg(seed)
	timed := func(qd int, op func(lsn int64, done func()) error) (ns float64, err error) {
		const n = 1 << 15
		ns = lp.selfNS(n, func() {
			err = closedLoop(eng, n, qd, func(_ int, done func()) error { return op(x.below(fill), done) })
		})
		return ns, err
	}
	if writeNS, err = timed(8, func(lsn int64, done func()) error { return f.Write(lsn, 1, done) }); err != nil {
		return 0, 0, err
	}
	readNS, err = timed(32, func(lsn int64, done func()) error { return f.Read(lsn, 1, done) })
	return writeNS, readNS, err
}

// closedLoop issues n operations at queue depth qd, the next as each
// completes, and runs eng until all have completed. A queue that drains
// first is a stall.
func closedLoop(eng *sim.Engine, n, qd int, issue func(i int, done func()) error) error {
	issued, completed := 0, 0
	var err error
	var done func()
	pump := func() {
		for err == nil && issued < n && issued-completed < qd {
			i := issued
			issued++
			err = issue(i, done)
		}
	}
	done = func() {
		completed++
		pump()
	}
	pump()
	if eng.RunWhile(func() bool { return err == nil && completed < n }) {
		return fmt.Errorf("%w: %d of %d operations completed", ssd.ErrStalled, completed, n)
	}
	return err
}

// fakeFlash is an ftl.Flash with no bus or die model: every operation
// completes after its nominal NAND array time, through one engine event. It
// lets the FTL run alone, paying only its own work and the engine's.
type fakeFlash struct {
	eng       *sim.Engine
	g         nand.Geometry
	channels  int
	chips     int
	t         nand.Timing
	issued    int64
	completed int64
	free      *fakeOp
}

// fakeOp is one pending operation, recycled through fakeFlash.free.
type fakeOp struct {
	f    *fakeFlash
	read func(int, error)
	done func(error)
	next *fakeOp
}

func newFakeFlash(eng *sim.Engine, cfg ssd.Config) *fakeFlash {
	return &fakeFlash{eng: eng, g: cfg.Geometry, channels: cfg.Channels, chips: cfg.ChipsPerChannel, t: cfg.Timing}
}

func (f *fakeFlash) Geometry() nand.Geometry { return f.g }
func (f *fakeFlash) Channels() int           { return f.channels }
func (f *fakeFlash) ChipsPerChannel() int    { return f.chips }

func (f *fakeFlash) Read(_, _ int, _ nand.Addr, _ bool, done func(int, error)) {
	f.start(f.t.ReadPage, done, nil)
}

func (f *fakeFlash) Program(_, _ int, _ nand.Addr, slc, _ bool, done func(error)) {
	d := f.t.ProgramPage
	if slc {
		d /= 4
	}
	f.start(d, nil, done)
}

func (f *fakeFlash) Erase(_, _ int, _ nand.Addr, _ bool, done func(error)) {
	f.start(f.t.EraseBlock, nil, done)
}

func (f *fakeFlash) start(d sim.Time, read func(int, error), done func(error)) {
	op := f.free
	if op == nil {
		op = &fakeOp{f: f}
	} else {
		f.free = op.next
		op.next = nil
	}
	op.read, op.done = read, done
	f.issued++
	f.eng.ScheduleArg(d, fakeOpFire, op)
}

func fakeOpFire(arg any) {
	op := arg.(*fakeOp)
	f := op.f
	read, done := op.read, op.done
	op.read, op.done = nil, nil
	op.next = f.free
	f.free = op
	f.completed++
	if read != nil {
		read(0, nil)
	} else {
		done(nil)
	}
}

var _ ftl.Flash = (*fakeFlash)(nil)

// isoCOW times Device.Restore of the workload's image onto a fresh device,
// and Device.Snapshot of such a clone.
func isoCOW(cfg ssd.Config, img *ssd.DeviceState) (snapshotMS, restoreUS float64) {
	var rs, ss []float64
	for i := 0; i < 20; i++ {
		dev := ssd.NewDevice(sim.NewEngine(), cfg)
		t0 := time.Now()
		dev.Restore(img)
		rs = append(rs, float64(time.Since(t0).Nanoseconds())/1e3)
		if i < 5 {
			t1 := time.Now()
			dev.Snapshot()
			ss = append(ss, float64(time.Since(t1).Nanoseconds())/1e6)
		}
	}
	return median(ss), median(rs)
}

// withCPUProfile runs f under the CPU profiler, writing the profile to path.
func withCPUProfile(path string, f func()) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return err
	}
	f()
	pprof.StopCPUProfile()
	return file.Close()
}

// pprofShares folds a CPU profile's flat time by package with the
// toolchain's own reader, go tool pprof -top. The calibration kernel's
// samples, taken between the reps, are left out.
func pprofShares(path string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", `-ignore=main\.runKernel`, path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out)), nil
}

// foldTop sums the flat column of go tool pprof -top output by package and
// returns each package's share of the total.
func foldTop(top string) map[string]float64 {
	flat := map[string]float64{}
	total := 0.0
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		pkg := packageOf(strings.Join(f[5:], " "))
		flat[pkg] += d.Seconds()
		total += d.Seconds()
	}
	for k, v := range flat {
		flat[k] = ratio(v, total)
	}
	return flat
}

// packageOf returns the last element of a profiled function's package path:
// ssdtp/internal/ftl.(*FTL).Write is in package ftl.
func packageOf(fn string) string {
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.Index(fn, "."); i >= 0 {
		fn = fn[:i]
	}
	return fn
}
