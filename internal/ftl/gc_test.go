package ftl

import (
	"runtime"
	"testing"

	"ssdtp/internal/sim"
)

// zaGC is package-level so the measured function captures nothing.
var zaGC struct {
	eng *sim.Engine
	f   *FTL
	pu  *puState
}

// zaCollect collects the closed block of zaGC.pu with the most live sectors,
// as gcStep would collect a victim, and runs the collection to its erase.
func zaCollect() {
	s := &zaGC
	f, pu := s.f, s.pu
	best := 0
	for i, b := range pu.full {
		if f.blockValid.At(f.globalBlock(pu.index, b)) > f.blockValid.At(f.globalBlock(pu.index, pu.full[best])) {
			best = i
		}
	}
	victim := pu.full[best]
	pu.full = append(pu.full[:best], pu.full[best+1:]...)
	f.collectBlock(pu, victim)
	s.eng.Run()
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestGCJobListsPresized pins collectBlock's job lists: a PU's first
// collection allocates its job and the two lists once each, sized before
// the scan instead of grown by append, and its second collection, of a
// victim no fuller than the first, allocates nothing. Every victim is half
// live, so each collection relocates sectors from several pages. A
// collection on another PU first warms the engine, the page-op freelist and
// the flash's queues, and the mapping chunks are materialized up front, so
// the counts isolate the job.
func TestGCJobListsPresized(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	cfg := smallConfig()
	cfg.Cache = CacheMapping
	eng := sim.NewEngine()
	f := New(eng, newZAFlash(eng, cfg), cfg)
	for psn := int64(0); psn < f.p2l.Len(); psn += mapChunk {
		f.p2l.Ptr(psn)
	}
	for gb := int64(0); gb < int64(f.numPU*f.blksPerPU); gb += blockChunk {
		f.blockValid.Ptr(gb)
		f.blockErases.Ptr(gb)
	}
	// Fill half the logical space a page per write, which stripes the pages
	// over the PUs in turn, then trim every other round of the stripe: no
	// collection runs, and every closed block is half live.
	half := f.LogicalSectors() / 2
	spp := int64(f.secPerPage)
	for lsn := int64(0); lsn < half; lsn += spp {
		if err := f.Write(lsn, int(spp), nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	round := spp * int64(f.numPU)
	for lsn := int64(0); lsn < half; lsn += 2 * round {
		if err := f.Trim(lsn, int(round)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if n := f.Counters().GCRuns; n != 0 {
		t.Fatalf("the fill ran %d collections", n)
	}

	zaGC.eng, zaGC.f = eng, f
	zaGC.pu = &f.pus[1]
	zaCollect()
	zaGC.pu = &f.pus[0]
	if len(zaGC.pu.full) < 2 {
		t.Fatalf("PU 0 has %d closed blocks, want 2", len(zaGC.pu.full))
	}
	if n := mallocs(zaCollect); n > 3 {
		t.Errorf("a PU's first collection made %d allocations, want at most 3 (job, moves, read pages)", n)
	}
	if n := mallocs(zaCollect); n != 0 {
		t.Errorf("a PU's second collection made %d allocations, want 0", n)
	}
	if c := f.Counters(); c.Erases != 3 || c.GCPageReads != 3*int64(f.pagesPerBlk)/2 {
		t.Fatalf("want 3 collections of half-live blocks, counters %+v", c)
	}
	checkInvariants(t, f)
}

// TestRNGBuiltOnlyForItsDraws pins that only a config that can draw —
// rand-greedy victim sampling or the scrub patrol — seeds a random source,
// and that a clone of a drive that drew resumes its stream.
func TestRNGBuiltOnlyForItsDraws(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want bool
	}{
		{"greedy", func(*Config) {}, false},
		{"fifo", func(c *Config) { c.GC = GCFIFO }, false},
		{"rand-greedy", func(c *Config) { c.GC = GCRandGreedy }, true},
		{"refresh", func(c *Config) { c.RefreshBits = 4 }, true},
	} {
		cfg := smallConfig()
		tc.edit(&cfg)
		_, _, f := newTestFTL(t, cfg)
		if got := f.rng != nil; got != tc.want || (f.rngSrc != nil) != tc.want {
			t.Errorf("%s: random source built = %v, want %v", tc.name, got, tc.want)
		}
	}

	cfg := smallConfig()
	cfg.GC = GCRandGreedy
	cfg.Seed = 3
	eng, fl, f := newTestFTL(t, cfg)
	total := f.LogicalSectors()
	for i := int64(0); i < 2*total/4; i++ {
		if err := f.Write(i%(total/4)*4, 4, nil); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			eng.Run()
		}
	}
	f.Flush(nil)
	eng.Run()
	if f.rngSrc.n == 0 {
		t.Fatal("rand-greedy collection never drew")
	}
	img := snapshotFTL(eng, fl, f)
	_, _, c := img.restore(t)
	if c.rngSrc.n != f.rngSrc.n || c.rng.Int63() != f.rng.Int63() {
		t.Fatalf("clone resumed the stream at draw %d, source at %d", c.rngSrc.n, f.rngSrc.n)
	}
}
