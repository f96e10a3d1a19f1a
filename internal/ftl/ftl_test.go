package ftl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ssdtp/internal/nand"
	"ssdtp/internal/sim"
)

// fakeFlash implements Flash over real nand.Chips with fixed per-op delays.
// Using real chips means every FTL placement decision is validated against
// flash semantics (erase-before-program, in-order pages); any violation
// fails the test via the panic in done.
type fakeFlash struct {
	t        *testing.T
	eng      *sim.Engine
	g        nand.Geometry
	channels int
	chips    int
	arr      [][]*nand.Chip
	progLog  []int // channel of each program, in issue order
	quiet    bool  // don't fail the test on flash errors (bad-block tests)

	readDelay, progDelay, eraseDelay sim.Time
}

func newFakeFlash(t *testing.T, eng *sim.Engine, g nand.Geometry, channels, chips int) *fakeFlash {
	f := &fakeFlash{
		t: t, eng: eng, g: g, channels: channels, chips: chips,
		readDelay:  50 * sim.Microsecond,
		progDelay:  600 * sim.Microsecond,
		eraseDelay: 3 * sim.Millisecond,
	}
	f.arr = make([][]*nand.Chip, channels)
	for c := range f.arr {
		f.arr[c] = make([]*nand.Chip, chips)
		for w := range f.arr[c] {
			f.arr[c][w] = nand.NewChip(nand.ChipConfig{Geometry: g})
		}
	}
	return f
}

func (f *fakeFlash) Geometry() nand.Geometry { return f.g }
func (f *fakeFlash) Channels() int           { return f.channels }
func (f *fakeFlash) ChipsPerChannel() int    { return f.chips }

func (f *fakeFlash) Read(ch, chip int, a nand.Addr, priority bool, done func(int, error)) {
	bits := f.arr[ch][chip].BitErrors(a)
	f.eng.Schedule(f.readDelay, func() {
		err := f.arr[ch][chip].Read(a, nil)
		if err != nil && !f.quiet {
			f.t.Errorf("flash read %v: %v", a, err)
		}
		done(bits, err)
	})
}

func (f *fakeFlash) Program(ch, chip int, a nand.Addr, slc, background bool, done func(error)) {
	f.progLog = append(f.progLog, ch)
	d := f.progDelay
	if slc {
		d /= 4
	}
	f.eng.Schedule(d, func() {
		err := f.arr[ch][chip].Program(a, nil)
		if err != nil && !f.quiet {
			f.t.Errorf("flash program %v: %v", a, err)
		}
		done(err)
	})
}

func (f *fakeFlash) Erase(ch, chip int, a nand.Addr, background bool, done func(error)) {
	f.eng.Schedule(f.eraseDelay, func() {
		err := f.arr[ch][chip].Erase(a)
		if err != nil && !f.quiet {
			f.t.Errorf("flash erase %v: %v", a, err)
		}
		done(err)
	})
}

func smallGeom() nand.Geometry {
	return nand.Geometry{Dies: 2, Planes: 2, BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 16384}
}

func smallConfig() Config {
	return Config{
		Geometry:        smallGeom(),
		Channels:        2,
		ChipsPerChannel: 1,
		SectorSize:      4096,
		OverProvision:   0.25,
		GC:              GCGreedy,
		Cache:           CacheData,
		CacheBytes:      256 * 1024,
		Alloc:           AllocCWDP,
	}
}

func newTestFTL(t *testing.T, cfg Config) (*sim.Engine, *fakeFlash, *FTL) {
	t.Helper()
	eng := sim.NewEngine()
	fl := newFakeFlash(t, eng, cfg.Geometry, cfg.Channels, cfg.ChipsPerChannel)
	return eng, fl, New(eng, fl, cfg)
}

// checkInvariants validates the mappings, block accounting, and the write
// cache's FIFO (checkCacheFIFO). Forward, every mapped LSN's sector records
// that LSN in p2l. Backward, the sectors live reports are exactly the mapped
// ones: their count per block is blockValid and in total validTotal, and no
// sector of a free block is live.
func checkInvariants(t *testing.T, f *FTL) {
	t.Helper()
	checkCacheFIFO(t, f.cache)
	mapped := int64(0)
	for lsn := int64(0); lsn < f.l2p.Len(); lsn++ {
		psn := f.l2p.At(lsn)
		if psn < 0 {
			continue
		}
		mapped++
		if f.p2l.At(psn) != lsn {
			t.Fatalf("l2p[%d]=%d but p2l[%d]=%d", lsn, psn, psn, f.p2l.At(psn))
		}
	}
	back := int64(0)
	blockCounts := make([]int32, f.blockValid.Len())
	for psn := int64(0); psn < f.p2l.Len(); psn++ {
		if _, ok := f.live(psn); ok {
			back++
			blockCounts[f.blockOfPsn(psn)]++
		}
	}
	if mapped != back {
		t.Fatalf("mapping asymmetry: %d forward, %d live backward", mapped, back)
	}
	if mapped != f.validTotal {
		t.Fatalf("validTotal=%d, mapped=%d", f.validTotal, mapped)
	}
	for b, want := range blockCounts {
		if f.blockValid.At(int64(b)) != want {
			t.Fatalf("blockValid[%d]=%d, recount=%d", b, f.blockValid.At(int64(b)), want)
		}
	}
	for i := range f.pus {
		for _, blk := range f.pus[i].free {
			if n := blockCounts[f.globalBlock(i, blk)]; n != 0 {
				t.Fatalf("free block %d of pu %d holds %d live sectors", blk, i, n)
			}
		}
	}
}

// checkCacheFIFO walks the write cache's linked dirty FIFO from its head.
// Every entry marked queued is reached exactly once and nothing else is,
// the walk ends at the tail, no reached entry is on the freelist, and every
// dirty entry reached is the index's entry for its LSN (popDirty relies on
// it).
func checkCacheFIFO(t *testing.T, c *writeCache) {
	t.Helper()
	free := map[*cacheEntry]bool{}
	for e := c.free; e != nil; e = e.next {
		if free[e] {
			t.Fatalf("freelist cycles at entry %d", e.h)
		}
		free[e] = true
	}
	reached := map[*cacheEntry]bool{}
	var last *cacheEntry
	dead := 0
	for e := c.head; e != nil; e = e.next {
		if e.state == entryDead {
			dead++
		}
		switch {
		case reached[e]:
			t.Fatalf("FIFO reaches entry %d (lsn %d) twice", e.h, e.lsn)
		case !e.queued:
			t.Fatalf("FIFO reaches entry %d (lsn %d), which is not marked queued", e.h, e.lsn)
		case free[e]:
			t.Fatalf("FIFO entry %d (lsn %d) is also on the freelist", e.h, e.lsn)
		case e.state == entryDirty && c.entries.get(e.lsn) != e:
			t.Fatalf("dirty FIFO entry for lsn %d is not the index's entry %p", e.lsn, c.entries.get(e.lsn))
		}
		reached[e] = true
		last = e
	}
	if last != c.tail {
		t.Fatalf("FIFO walk ends at %p, tail is %p", last, c.tail)
	}
	if dead != c.deadQueued || dead > c.dirtyCount+compactSlack {
		t.Fatalf("FIFO holds %d dead entries, counted %d, with %d dirty", dead, c.deadQueued, c.dirtyCount)
	}
	queued := 0
	for _, b := range c.entries.blocks {
		for i := range b {
			if b[i].queued {
				queued++
			}
		}
	}
	if queued != len(reached) {
		t.Fatalf("%d entries marked queued, the FIFO walk reaches %d", queued, len(reached))
	}
}

func TestWriteFlushMapsSectors(t *testing.T) {
	eng, fl, f := newTestFTL(t, smallConfig())
	var wrote, flushed bool
	var wroteAt sim.Time
	if err := f.Write(0, 8, func() { wrote, wroteAt = true, eng.Now() }); err != nil {
		t.Fatal(err)
	}
	f.Flush(func() { flushed = true })
	eng.Run()
	if !wrote || !flushed {
		t.Fatalf("wrote=%v flushed=%v", wrote, flushed)
	}
	// The write completes on cache admission, not after a program.
	if wroteAt >= fl.progDelay {
		t.Errorf("write completed at %d, should be well under tPROG %d", wroteAt, fl.progDelay)
	}
	if f.ValidSectors() != 8 {
		t.Errorf("ValidSectors = %d, want 8", f.ValidSectors())
	}
	c := f.Counters()
	if c.DataPagesProgrammed != 2 { // 8 sectors / 4 per page
		t.Errorf("DataPagesProgrammed = %d, want 2", c.DataPagesProgrammed)
	}
	checkInvariants(t, f)
}

func TestCacheAbsorbsOverwrites(t *testing.T) {
	eng, _, f := newTestFTL(t, smallConfig())
	for i := 0; i < 10; i++ {
		if err := f.Write(0, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	c := f.Counters()
	if c.CacheHits != 9*4 {
		t.Errorf("CacheHits = %d, want 36", c.CacheHits)
	}
	if c.DataPagesProgrammed != 0 {
		t.Errorf("programs before flush = %d, want 0 (all cached)", c.DataPagesProgrammed)
	}
	f.Flush(nil)
	eng.Run()
	if got := f.Counters().DataPagesProgrammed; got != 1 {
		t.Errorf("programs after flush = %d, want 1", got)
	}
	checkInvariants(t, f)
}

func TestTrimUnmaps(t *testing.T) {
	eng, _, f := newTestFTL(t, smallConfig())
	_ = f.Write(0, 8, nil)
	f.Flush(nil)
	eng.Run()
	if err := f.Trim(0, 4); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if f.ValidSectors() != 4 {
		t.Errorf("ValidSectors after trim = %d, want 4", f.ValidSectors())
	}
	if f.MapEntry(0) != -1 {
		t.Error("trimmed sector still mapped")
	}
	checkInvariants(t, f)
}

func TestTrimOfDirtyCacheEntry(t *testing.T) {
	eng, _, f := newTestFTL(t, smallConfig())
	_ = f.Write(0, 4, nil)
	if err := f.Trim(0, 4); err != nil {
		t.Fatal(err)
	}
	f.Flush(nil)
	eng.Run()
	if f.ValidSectors() != 0 {
		t.Errorf("ValidSectors = %d, want 0", f.ValidSectors())
	}
	checkInvariants(t, f)
}

func TestRangeErrors(t *testing.T) {
	_, _, f := newTestFTL(t, smallConfig())
	if err := f.Write(f.LogicalSectors(), 1, nil); err == nil {
		t.Error("out-of-range write accepted")
	}
	if err := f.Read(-1, 1, nil); err == nil {
		t.Error("negative read accepted")
	}
	if err := f.Trim(0, -1); err == nil {
		t.Error("negative trim accepted")
	}
}

func TestReadUnmappedIsFast(t *testing.T) {
	eng, _, f := newTestFTL(t, smallConfig())
	var end sim.Time
	if err := f.Read(100, 4, func() { end = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if end > 10*sim.Microsecond {
		t.Errorf("unmapped read took %d ns", end)
	}
}

func TestReadFromFlashPaysPageRead(t *testing.T) {
	eng, fl, f := newTestFTL(t, smallConfig())
	_ = f.Write(0, 4, nil)
	f.Flush(nil)
	eng.Run()
	start := eng.Now()
	var end sim.Time
	if err := f.Read(0, 4, func() { end = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if end-start < fl.readDelay {
		t.Errorf("flash read latency %d < tR %d", end-start, fl.readDelay)
	}
	if f.Counters().PageReads != 1 {
		t.Errorf("PageReads = %d, want 1 (4 sectors share a page)", f.Counters().PageReads)
	}
}

func TestReadHitInCache(t *testing.T) {
	eng, _, f := newTestFTL(t, smallConfig())
	_ = f.Write(0, 4, nil)
	eng.Run()
	_ = f.Read(0, 4, nil)
	eng.Run()
	c := f.Counters()
	if c.CacheReadHits != 4 {
		t.Errorf("CacheReadHits = %d, want 4", c.CacheReadHits)
	}
	if c.PageReads != 0 {
		t.Errorf("PageReads = %d, want 0", c.PageReads)
	}
}

// Filling the logical space and overwriting it forces garbage collection;
// all invariants must survive and erases must have happened.
func TestGCUnderOverwriteChurn(t *testing.T) {
	for _, policy := range []GCPolicy{GCGreedy, GCRandGreedy, GCFIFO} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.GC = policy
			cfg.Seed = 42
			eng, _, f := newTestFTL(t, cfg)
			rng := rand.New(rand.NewSource(7))
			total := f.LogicalSectors()
			// Fill sequentially, then overwrite randomly 3x the space.
			for lsn := int64(0); lsn < total; lsn += 4 {
				if err := f.Write(lsn, 4, nil); err != nil {
					t.Fatal(err)
				}
			}
			f.Flush(nil)
			eng.Run()
			for i := int64(0); i < 3*total/4; i++ {
				lsn := rng.Int63n(total/4) * 4
				if err := f.Write(lsn, 4, nil); err != nil {
					t.Fatal(err)
				}
				if i%64 == 0 {
					eng.Run()
				}
			}
			f.Flush(nil)
			eng.Run()
			c := f.Counters()
			if c.Erases == 0 {
				t.Error("no erases despite churn beyond capacity")
			}
			if c.GCRuns == 0 {
				t.Error("GC never ran")
			}
			if f.ValidSectors() != total {
				t.Errorf("ValidSectors = %d, want %d (all mapped)", f.ValidSectors(), total)
			}
			checkInvariants(t, f)
		})
	}
}

func TestRAINParityRatio(t *testing.T) {
	cfg := smallConfig()
	cfg.RAIN = RAINConfig{DataPages: 15}
	eng, _, f := newTestFTL(t, cfg)
	// Write 60 pages worth sequentially.
	for lsn := int64(0); lsn < 240; lsn += 4 {
		if err := f.Write(lsn, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.Flush(nil)
	eng.Run()
	c := f.Counters()
	wantParity := c.PagesProgrammed() / 16 // roughly 1 in 16
	if c.ParityPagesProgrammed < wantParity-1 || c.ParityPagesProgrammed < 1 {
		t.Errorf("ParityPagesProgrammed = %d (data %d)", c.ParityPagesProgrammed, c.DataPagesProgrammed)
	}
	checkInvariants(t, f)
}

func TestMapJournalEmission(t *testing.T) {
	cfg := smallConfig()
	eng, _, f := newTestFTL(t, cfg)
	// entriesPerMapPage = 16384/4 = 4096 updates per journal page. Write
	// 8192 sectors worth of updates (with overwrites to stay in space).
	total := f.LogicalSectors()
	updates := int64(0)
	for updates < 8300 {
		lsn := (updates * 4) % (total - 4)
		lsn -= lsn % 4
		if err := f.Write(lsn, 4, nil); err != nil {
			t.Fatal(err)
		}
		updates += 4
		f.Flush(nil)
		eng.Run()
	}
	c := f.Counters()
	if c.MapPagesProgrammed < 2 {
		t.Errorf("MapPagesProgrammed = %d, want >= 2", c.MapPagesProgrammed)
	}
	checkInvariants(t, f)
}

func TestAllocOrderChannelStriping(t *testing.T) {
	// CWDP: consecutive flushed pages alternate channels. PDWC: consecutive
	// pages stay on channel 0 until planes*dies*ways exhaust.
	run := func(order AllocOrder) []int {
		cfg := smallConfig()
		cfg.Alloc = order
		eng, fl, f := newTestFTL(t, cfg)
		for lsn := int64(0); lsn < 8*4; lsn += 4 {
			if err := f.Write(lsn, 4, nil); err != nil {
				t.Fatal(err)
			}
		}
		f.Flush(nil)
		eng.Run()
		return fl.progLog
	}
	cwdp := run(AllocCWDP)
	if len(cwdp) < 4 || cwdp[0] == cwdp[1] {
		t.Errorf("CWDP first two programs on same channel: %v", cwdp)
	}
	pdwc := run(AllocPDWC)
	// planes(2)*dies(2)*ways(1) = 4 consecutive pages per channel.
	for i := 0; i < 4 && i < len(pdwc); i++ {
		if pdwc[i] != 0 {
			t.Errorf("PDWC program %d on channel %d, want 0: %v", i, pdwc[i], pdwc)
		}
	}
}

func TestBackpressureStallsWrites(t *testing.T) {
	cfg := smallConfig()
	cfg.CacheBytes = 8 * 4096 // tiny cache: 8 sectors
	eng, _, f := newTestFTL(t, cfg)
	var lat []sim.Time
	issue := eng.Now()
	for i := 0; i < 64; i++ {
		lsn := int64(i * 4)
		if err := f.Write(lsn, 4, func() { lat = append(lat, eng.Now()-issue) }); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(lat) != 64 {
		t.Fatalf("completions = %d", len(lat))
	}
	// Later requests must have experienced flash-program-scale stalls.
	if lat[len(lat)-1] < 500*sim.Microsecond {
		t.Errorf("no backpressure: last completion at %d ns", lat[len(lat)-1])
	}
	checkInvariants(t, f)
}

func TestFlushIdempotentAndEmpty(t *testing.T) {
	eng, _, f := newTestFTL(t, smallConfig())
	n := 0
	f.Flush(func() { n++ })
	f.Flush(func() { n++ })
	eng.Run()
	if n != 2 {
		t.Errorf("flush completions = %d, want 2", n)
	}
}

// TestFlushReentrantWaiter pins the two reused drain-waiter lists: a
// completion that flushes again lands on the other list, so the waiters
// still queued behind it all run exactly once at this drain, and the new
// flushes wait for the data written before them. A flush of a clean drive
// completes at once, also from inside a completion. Once both lists have
// grown, a flush allocates nothing.
func TestFlushReentrantWaiter(t *testing.T) {
	eng, _, f := newTestFTL(t, smallConfig())
	var order []string
	if err := f.Write(0, 8, nil); err != nil {
		t.Fatal(err)
	}
	f.Flush(func() {
		order = append(order, "a")
		if err := f.Write(64, 8, nil); err != nil {
			t.Fatal(err)
		}
		// Two flushes from one completion: with one shared list they would
		// overwrite the waiters still to run at this drain.
		f.Flush(func() { order = append(order, fmt.Sprintf("c:%d", f.Counters().DataPagesProgrammed)) })
		f.Flush(func() { order = append(order, fmt.Sprintf("d:%d", f.Counters().DataPagesProgrammed)) })
	})
	f.Flush(func() { order = append(order, "b") })
	eng.Run()
	want := []string{"a", "b", "c:4", "d:4"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("completions %v, want %v", order, want)
	}

	order = order[:0]
	f.Flush(func() {
		order = append(order, "e")
		f.Flush(func() { order = append(order, "f") })
		order = append(order, "e done")
	})
	f.Flush(func() { order = append(order, "g") })
	eng.Run()
	want = []string{"e", "f", "e done", "g"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("clean-drive completions %v, want %v", order, want)
	}
	checkInvariants(t, f)

	if raceEnabled {
		return
	}
	f.Flush(flushNoop)
	f.Flush(flushNoop)
	flushFTL = f
	if n := testing.AllocsPerRun(100, flushAgain); n != 0 {
		t.Fatalf("a flush of a clean drive made %v allocations, want 0", n)
	}
}

// flushFTL and the functions below are package-level so the measured
// function captures nothing.
var flushFTL *FTL

func flushNoop()  {}
func flushAgain() { flushFTL.Flush(flushNoop) }

func TestPSLCCreditsAndIndex(t *testing.T) {
	cfg := smallConfig()
	cfg.PSLCBytes = 2 * 16384 // two pages of SLC credit
	eng, _, f := newTestFTL(t, cfg)
	for lsn := int64(0); lsn < 16*4; lsn += 4 {
		if err := f.Write(lsn, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.Flush(nil)
	eng.Run()
	c := f.Counters()
	if c.PSLCPagesProgrammed != 2 {
		t.Errorf("PSLCPagesProgrammed = %d, want 2", c.PSLCPagesProgrammed)
	}
	if len(f.pslcIndex) != 8 {
		t.Errorf("pSLC-resident sectors = %d, want 8", len(f.pslcIndex))
	}
	checkInvariants(t, f)
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	// oneChip reshapes c into one chip of blocks × pages one-sector pages.
	oneChip := func(c *Config, blocks, pages int) {
		c.Channels, c.ChipsPerChannel = 1, 1
		c.Geometry = nand.Geometry{Dies: 1, Planes: 1, BlocksPerPlane: blocks,
			PagesPerBlock: pages, PageSize: c.SectorSize}
	}
	// The largest drive the 32-bit mapping tables address.
	atLimit := smallConfig()
	oneChip(&atLimit, math.MaxInt32, 1)
	if err := atLimit.Validate(); err != nil {
		t.Fatalf("drive of math.MaxInt32 physical sectors rejected: %v", err)
	}
	// The largest write cache the index's handles can name.
	bigCache := smallConfig()
	bigCache.CacheBytes = maxCacheSectors * bigCache.SectorSize
	if err := bigCache.Validate(); err != nil {
		t.Fatalf("write cache of %d sectors rejected: %v", maxCacheSectors, err)
	}
	// want, when set, is a substring the error must carry: an unknown enum
	// value is reported with its field and the value.
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Channels = 0 }, ""},
		{func(c *Config) { c.SectorSize = 3000 }, ""},
		{func(c *Config) { c.OverProvision = 0.95 }, ""},
		{func(c *Config) { c.RAIN.DataPages = -1 }, ""},
		{func(c *Config) { c.GCLowWater = 1 }, ""},
		{func(c *Config) { oneChip(c, 1<<30, 2) }, ""}, // 2^31 sectors: would truncate
		{func(c *Config) { c.CacheBytes = (maxCacheSectors + 1) * c.SectorSize }, ""},
		{func(c *Config) { c.Cache = CacheMapping + 1 }, "Cache 2 "},
		{func(c *Config) { c.Cache = -1 }, "Cache -1 "},
		{func(c *Config) { c.GC = GCFIFO + 1 }, "GC 3 "},
		{func(c *Config) { c.Alloc = AllocDPCW + 1 }, "Alloc 4 "},
	}
	for i, tc := range cases {
		cfg := smallConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: Validate = %v, want ErrBadConfig", i, err)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: Validate = %v, want it to name %q", i, err, tc.want)
		}
	}
}

func TestOverProvisionSizing(t *testing.T) {
	cfg := smallConfig()
	_, _, f := newTestFTL(t, cfg)
	g := cfg.Geometry
	physSectors := g.Pages() * int64(cfg.Channels) * int64(cfg.ChipsPerChannel) * int64(g.PageSize/cfg.SectorSize) / 1
	want := int64(float64(physSectors) * 0.75)
	want -= want % 4
	if f.LogicalSectors() != want {
		t.Errorf("LogicalSectors = %d, want %d", f.LogicalSectors(), want)
	}
}

// Property: arbitrary interleavings of writes, trims, reads and flushes
// preserve all mapping invariants under every GC policy and cache kind, and
// no data or relocation page ever carries one LSN twice (opAuditFlash). The
// flush-each-write variant flushes the mapping cache after every write, so
// each request programs its own padded pages while host reads and other
// requests' programs are in flight.
func TestRandomOpsInvariantProperty(t *testing.T) {
	for _, v := range []struct {
		name       string
		cache      CacheKind
		flushWrite bool
	}{
		{"data-cache", CacheData, false},
		{"mapping-cache", CacheMapping, false},
		{"flush-each-write", CacheMapping, true},
	} {
		for _, gc := range []GCPolicy{GCGreedy, GCRandGreedy} {
			name := fmt.Sprintf("%s-%v", v.name, gc)
			t.Run(name, func(t *testing.T) {
				cfg := smallConfig()
				cfg.Cache = v.cache
				cfg.GC = gc
				cfg.Seed = 99
				// Exercise the full feature set under churn.
				cfg.GCSuspend = true
				cfg.RAIN = RAINConfig{DataPages: 7}
				cfg.WearLevelThreshold = 4
				cfg.IdleGC = true
				cfg.IdleDelay = int64(20 * sim.Millisecond)
				eng, fl, f := newAuditedFTL(t, cfg)
				rng := rand.New(rand.NewSource(123))
				total := f.LogicalSectors()
				for i := 0; i < 2000; i++ {
					lsn := rng.Int63n(total - 8)
					n := rng.Intn(8) + 1
					switch rng.Intn(10) {
					case 0:
						if err := f.Trim(lsn, n); err != nil {
							t.Fatal(err)
						}
					case 1, 2:
						if err := f.Read(lsn, n, nil); err != nil {
							t.Fatal(err)
						}
					default:
						if err := f.Write(lsn, n, nil); err != nil {
							t.Fatal(err)
						}
						if v.flushWrite {
							f.Flush(nil)
						}
					}
					if i%50 == 0 {
						eng.Run()
					}
				}
				f.Flush(nil)
				eng.Run()
				checkInvariants(t, f)
				fl.checkAuditCoverage(f)
			})
		}
	}
}

func TestPUForSeqCoversAllPUs(t *testing.T) {
	for _, order := range []AllocOrder{AllocCWDP, AllocPDWC, AllocWDPC, AllocDPCW} {
		cfg := smallConfig()
		cfg.Alloc = order
		_, _, f := newTestFTL(t, cfg)
		seen := make(map[int]bool)
		for s := int64(0); s < int64(f.numPU); s++ {
			pu := f.puForSeq(s)
			if pu < 0 || pu >= f.numPU {
				t.Fatalf("%v: puForSeq(%d) = %d out of range", order, s, pu)
			}
			if seen[pu] {
				t.Fatalf("%v: PU %d repeated within one period", order, pu)
			}
			seen[pu] = true
		}
		if len(seen) != f.numPU {
			t.Errorf("%v: covered %d PUs, want %d", order, len(seen), f.numPU)
		}
		// nextPU reads the period New precomputed; over three full wraps it
		// must agree with puForSeq at every sequence number.
		for s := int64(0); s < 3*int64(f.numPU); s++ {
			if got, want := f.nextPU(), f.puForSeq(s); got != want {
				t.Fatalf("%v: nextPU at seq %d = %d, puForSeq = %d", order, s, got, want)
			}
		}
	}
}

func TestMountReadsAccounting(t *testing.T) {
	run := func(eager bool) (int64, sim.Time) {
		eng, _, f := newTestFTL(t, smallConfig())
		done := false
		f.Mount(eager, func() { done = true })
		eng.RunWhile(func() bool { return !done })
		return f.Counters().MountReads, eng.Now()
	}
	lazyReads, lazyT := run(false)
	eagerReads, eagerT := run(true)
	if lazyReads != 1 {
		t.Errorf("on-demand mount reads = %d, want 1 (checkpoint root)", lazyReads)
	}
	wantEager := int64(1) + (3072*4+16383)/16384 // root + map pages
	if eagerReads != wantEager {
		t.Errorf("eager mount reads = %d, want %d", eagerReads, wantEager)
	}
	if lazyT <= 0 || eagerT <= 0 {
		t.Error("mount consumed no simulated time")
	}
	// Timing separation is asserted at device level (real bus contention)
	// in the tabS8 experiment test.
}

// Hot/cold stream separation on a skewed overwrite workload: every
// relocation page goes to the PU's relocation block, and the relocation
// traffic stays below what the same workload cost with relocations mixed
// into the host-write block (9176 relocation pages per 3186 data pages,
// measured before the mixed mode was removed).
func TestStreamSeparationReducesGC(t *testing.T) {
	const mixedGC, mixedData = 9176, 3186
	cfg := smallConfig()
	cfg.Seed = 4
	eng, fl, f := newAuditedFTL(t, cfg)
	rng := rand.New(rand.NewSource(12))
	total := f.LogicalSectors()
	// Fill, then skewed overwrites: 90% of writes to 10% of space.
	for lsn := int64(0); lsn < total; lsn += 4 {
		_ = f.Write(lsn, 4, nil)
	}
	f.Flush(nil)
	eng.Run()
	hot := total / 10
	for i := 0; i < 4000; i++ {
		var lsn int64
		if rng.Intn(10) < 9 {
			lsn = rng.Int63n(hot/4) * 4
		} else {
			lsn = hot + rng.Int63n((total-hot-4)/4)*4
		}
		_ = f.Write(lsn, 4, nil)
		if i%100 == 0 {
			eng.Run()
		}
	}
	f.Flush(nil)
	eng.Run()
	checkInvariants(t, f)
	fl.checkAuditCoverage(f)
	c := f.Counters()
	sep := float64(c.GCPagesProgrammed) / float64(c.DataPagesProgrammed)
	if mixed := float64(mixedGC) / float64(mixedData); sep >= mixed {
		t.Errorf("separation did not reduce GC traffic: separated %d/%d = %.3f vs mixed %.3f gc/data",
			c.GCPagesProgrammed, c.DataPagesProgrammed, sep, mixed)
	}
}

// opAuditFlash is a fakeFlash that, on every program it is asked to issue,
// audits every page op the FTL has between submit and commit: no data or
// relocation page may carry one LSN twice. commitPage gathers a page's old
// mappings before committing any slot, which is only equivalent to
// committing slot by slot under that precondition. The audited ops are the
// FTL's whole descriptor pool, seeded up front; the test fails if the pool
// ever outgrows the seed, since an op it did not seed would go unaudited.
// It also counts the programs that land in a block its PU opened as the
// relocation block (gcActive, just opened when its page 0 is programmed):
// with hot/cold separation that is exactly the relocation pages.
type opAuditFlash struct {
	*fakeFlash
	t        *testing.T
	f        *FTL
	ops      []*pageOp
	audited  map[pageKind]int
	gcBlock  map[int64]bool // global block → opened as a relocation block
	gcStream int64
}

func (a *opAuditFlash) Program(ch, chip int, addr nand.Addr, slc, background bool, done func(error)) {
	for i := range a.f.pus {
		pu := &a.f.pus[i]
		if pu.ch != ch || pu.chip != chip || pu.die != addr.Die || pu.plane != addr.Plane {
			continue
		}
		gb := a.f.globalBlock(i, int32(addr.Block))
		if addr.Page == 0 {
			a.gcBlock[gb] = pu.gcActive.blk == int32(addr.Block) && pu.gcActive.next == 1
		}
		if a.gcBlock[gb] {
			a.gcStream++
		}
	}
	for _, op := range a.ops {
		if op.lsns == nil || (op.kind != kindData && op.kind != kindGC && op.kind != kindRefresh) {
			continue
		}
		a.audited[op.kind]++
		for i, lsn := range op.lsns {
			for _, prev := range op.lsns[:i] {
				if lsn >= 0 && lsn == prev {
					a.t.Fatalf("page op of kind %d carries lsn %d twice: %v", op.kind, lsn, op.lsns)
				}
			}
		}
	}
	a.fakeFlash.Program(ch, chip, addr, slc, background, done)
}

// newAuditedFTL builds an FTL over an opAuditFlash and seeds the FTL's
// page-op pool with the ops the flash audits.
func newAuditedFTL(t *testing.T, cfg Config) (*sim.Engine, *opAuditFlash, *FTL) {
	t.Helper()
	const poolSeed = 512
	eng := sim.NewEngine()
	fl := &opAuditFlash{
		fakeFlash: newFakeFlash(t, eng, cfg.Geometry, cfg.Channels, cfg.ChipsPerChannel),
		t:         t,
		audited:   map[pageKind]int{},
		gcBlock:   map[int64]bool{},
	}
	f := New(eng, fl, cfg)
	fl.f = f
	for i := 0; i < poolSeed; i++ {
		fl.ops = append(fl.ops, f.newPageOp(kindData, 0))
	}
	for _, op := range fl.ops {
		f.releaseOp(op)
	}
	return eng, fl, f
}

// checkAuditCoverage fails unless the audit saw every op the FTL used (the
// pool never outgrew its seed) and saw data pages and relocation pages
// with live data, and unless every relocation page, and nothing else, was
// programmed into the PU's relocation block.
func (a *opAuditFlash) checkAuditCoverage(f *FTL) {
	a.t.Helper()
	pooled := 0
	for op := f.opFree; op != nil; op = op.next {
		pooled++
	}
	if pooled != len(a.ops) {
		a.t.Fatalf("page-op pool holds %d ops, seeded %d: raise the seed so every op is audited", pooled, len(a.ops))
	}
	if moved := f.Counters().GCValidMoved; moved == 0 || a.audited[kindGC] == 0 || a.audited[kindData] == 0 {
		a.t.Fatalf("audited %v (by page kind) and moved %d live sectors; want data and relocation pages with live data",
			a.audited, moved)
	}
	if gc := f.Counters().GCPagesProgrammed; a.gcStream != gc {
		a.t.Fatalf("%d programs landed in a relocation block, %d relocation pages programmed", a.gcStream, gc)
	}
}
