package ftl

import (
	"math/rand"
	"testing"

	"ssdtp/internal/nand"
	"ssdtp/internal/sim"
)

// checkIndex verifies x against the oracle map and the linear-probing
// invariant: every slot between a key's home and its position is occupied,
// so get reaches it. It also checks the half-load bound.
func checkIndex(t *testing.T, step int, x *cacheIndex, oracle map[int64]*cacheEntry) {
	t.Helper()
	n := 0
	for i, s := range x.slots {
		if s.h == 0 {
			continue
		}
		n++
		if e := x.entry(s.h); oracle[int64(s.lsn)] != e || e.h != s.h {
			t.Fatalf("step %d: slot %d holds lsn %d, which the oracle does not map there", step, i, s.lsn)
		}
		for j := x.home(int64(s.lsn)); j != i; j = (j + 1) & x.mask() {
			if x.slots[j].h == 0 {
				t.Fatalf("step %d: lsn %d at slot %d unreachable: slot %d on its probe path is empty", step, s.lsn, i, j)
			}
		}
	}
	if n != len(oracle) || x.n != n {
		t.Fatalf("step %d: %d occupied slots, count %d, oracle %d", step, n, x.n, len(oracle))
	}
	if 2*n > len(x.slots) {
		t.Fatalf("step %d: %d entries in %d slots, over half load", step, n, len(x.slots))
	}
	for k, e := range oracle {
		if got := x.get(k); got != e {
			t.Fatalf("step %d: get(%d) = %p, want %p", step, k, got, e)
		}
	}
}

// arenaEntries hands out fresh entries of x's arena, one block at a time.
type arenaEntries struct {
	x    *cacheIndex
	left []cacheEntry
}

// next returns a never-used arena entry for lsn.
func (a *arenaEntries) next(lsn int64) *cacheEntry {
	if len(a.left) == 0 {
		a.left = a.x.addBlock()[:]
	}
	e := &a.left[0]
	a.left = a.left[1:]
	e.lsn = lsn
	return e
}

// keysHomedAt returns n distinct non-negative keys whose home slot in x is
// slot, found by brute force.
func keysHomedAt(x *cacheIndex, slot, n int) []int64 {
	var keys []int64
	for k := int64(0); len(keys) < n; k++ {
		if x.home(k) == slot {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCacheIndexProbeRuns forces keys into one probe run that wraps past the
// table's end, deletes from the run's middle and its head, and grows the
// table, checking the index against a map after every step.
func TestCacheIndexProbeRuns(t *testing.T) {
	x := newCacheIndex(1)
	if len(x.slots) != 16 {
		t.Fatalf("minimum table has %d slots, want 16", len(x.slots))
	}
	oracle := map[int64]*cacheEntry{}
	arena := arenaEntries{x: &x}
	step := 0
	put := func(k int64) {
		e := arena.next(k)
		x.put(k, e)
		oracle[k] = e
		step++
		checkIndex(t, step, &x, oracle)
	}
	del := func(k int64) {
		if got, want := x.del(k), oracle[k]; got != want {
			t.Fatalf("del(%d) = %p, want %p", k, got, want)
		}
		delete(oracle, k)
		step++
		checkIndex(t, step, &x, oracle)
	}
	last := keysHomedAt(&x, 15, 5) // run 15, 0, 1, 2, 3: wraps at the end
	first := keysHomedAt(&x, 0, 2) // displaced behind the wrapped run
	for _, k := range last {
		put(k)
	}
	for _, k := range first {
		put(k)
	}
	if int64(x.slots[15].lsn) != last[0] || int64(x.slots[0].lsn) != last[1] || int64(x.slots[4].lsn) != first[0] {
		t.Fatalf("keys not laid out in one wrapped run: %+v", x.slots)
	}
	del(last[2])  // middle of the run, past the wrap
	del(last[0])  // head of the run, at the table's last slot
	del(first[1]) // tail
	if x.del(-42) != nil {
		t.Fatal("del of an absent key returned an entry")
	}
	for k := int64(1000); len(oracle) < 40; k++ { // grow 16 → 32 → 64 → 128
		put(k)
	}
	if len(x.slots) != 128 {
		t.Fatalf("table has %d slots after growth to 40 entries, want 128", len(x.slots))
	}
	for _, k := range append(last[1:2], last[3:]...) {
		del(k)
	}
}

// TestCacheIndexVsMap drives random put/get/del sequences against a Go map.
// Every put takes a fresh arena entry, so the entries span many arena
// blocks and each handle must resolve to its own entry. Keys come from a small range (dense runs, frequent hits) and from sets
// homed at one slot of the starting table (long colliding runs, including
// ones that wrap).
func TestCacheIndexVsMap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := newCacheIndex(8)
		keys := keysHomedAt(&x, len(x.slots)-1, 12)
		keys = append(keys, keysHomedAt(&x, 3, 12)...)
		for k := int64(0); k < 24; k++ {
			keys = append(keys, k)
		}
		oracle := map[int64]*cacheEntry{}
		arena := arenaEntries{x: &x}
		for step := 0; step < 2000; step++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0:
				if oracle[k] == nil {
					e := arena.next(k)
					x.put(k, e)
					oracle[k] = e
				}
			case 1:
				if got, want := x.del(k), oracle[k]; got != want {
					t.Fatalf("seed %d step %d: del(%d) = %p, want %p", seed, step, k, got, want)
				}
				delete(oracle, k)
			default:
				if got, want := x.get(k), oracle[k]; got != want {
					t.Fatalf("seed %d step %d: get(%d) = %p, want %p", seed, step, k, got, want)
				}
			}
			checkIndex(t, step, &x, oracle)
		}
	}
}

// TestCacheIndexGroupedHomes pins the home layout: the LBAs of each aligned
// group of homeGroup share one line of adjacent slots, in LBA order.
func TestCacheIndexGroupedHomes(t *testing.T) {
	x := newCacheIndex(512)
	for g := int64(0); g < 4096; g++ {
		base := x.home(g * homeGroup)
		if base%homeGroup != 0 {
			t.Fatalf("group %d starts at slot %d, not at a line boundary", g, base)
		}
		for k := int64(1); k < homeGroup; k++ {
			if got := x.home(g*homeGroup + k); got != base+int(k) {
				t.Fatalf("lsn %d homed at slot %d, want %d", g*homeGroup+k, got, base+int(k))
			}
		}
	}
}

// TestCacheIndexKeepsItsSize checks the index's sizing rule: the cache
// admits a whole write before it stalls, so it overshoots its capacity by
// up to one request, and the index is built large enough that this never
// rehashes it mid-run. A warm run of 64 KiB writes must overshoot and leave
// the table at its construction size.
func TestCacheIndexKeepsItsSize(t *testing.T) {
	cfg := smallConfig()
	eng := sim.NewEngine()
	f := New(eng, newZAFlash(eng, cfg), cfg)
	c := f.cache
	size := len(c.entries.slots)
	capacity := cfg.CacheBytes / cfg.SectorSize
	const n = 16 // sectors per 64 KiB write
	rng := rand.New(rand.NewSource(1))
	peak := 0
	for i := 0; i < 3000; i++ {
		done := false
		if err := f.Write(rng.Int63n(f.logicalSectors/n)*n, n, func() { done = true }); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, c.entries.n)
		if eng.RunWhile(func() bool { return !done }) {
			t.Fatal("write never completed")
		}
	}
	if peak <= capacity {
		t.Fatalf("index peaked at %d entries, never past the cache's %d sectors", peak, capacity)
	}
	if len(c.entries.slots) != size {
		t.Fatalf("index grew from %d to %d slots (peak %d entries)", size, len(c.entries.slots), peak)
	}
}

// zaFlash is a Flash that completes every operation after a fixed delay
// per kind, through one prebuilt callback per kind and reused FIFO queues,
// so unlike fakeFlash it allocates nothing per operation.
type zaFlash struct {
	eng             *sim.Engine
	g               nand.Geometry
	channels, chips int
	reads           []func(int, error)
	progs, erases   []func(error)
	readFn, progFn  func()
	eraseFn         func()
}

func newZAFlash(eng *sim.Engine, cfg Config) *zaFlash {
	z := &zaFlash{eng: eng, g: cfg.Geometry, channels: cfg.Channels, chips: cfg.ChipsPerChannel}
	z.readFn = func() { popFront(&z.reads)(0, nil) }
	z.progFn = func() { popFront(&z.progs)(nil) }
	z.eraseFn = func() { popFront(&z.erases)(nil) }
	return z
}

// popFront removes and returns q's head, keeping q's backing array.
func popFront[T any](q *[]T) T {
	v := (*q)[0]
	n := copy(*q, (*q)[1:])
	*q = (*q)[:n]
	return v
}

func (z *zaFlash) Geometry() nand.Geometry { return z.g }
func (z *zaFlash) Channels() int           { return z.channels }
func (z *zaFlash) ChipsPerChannel() int    { return z.chips }

func (z *zaFlash) Read(_, _ int, _ nand.Addr, _ bool, done func(int, error)) {
	z.reads = append(z.reads, done)
	z.eng.Schedule(50*sim.Microsecond, z.readFn)
}

func (z *zaFlash) Program(_, _ int, _ nand.Addr, _, _ bool, done func(error)) {
	z.progs = append(z.progs, done)
	z.eng.Schedule(600*sim.Microsecond, z.progFn)
}

func (z *zaFlash) Erase(_, _ int, _ nand.Addr, _ bool, done func(error)) {
	z.erases = append(z.erases, done)
	z.eng.Schedule(3*sim.Millisecond, z.eraseFn)
}

// zaCache is package-level so the measured function captures nothing.
var zaCache struct {
	eng     *sim.Engine
	f       *FTL
	rng     *rand.Rand
	span    int64
	pending int
}

func zaCacheDone()      { zaCache.pending-- }
func zaCacheBusy() bool { return zaCache.pending > 0 }

// zaCacheWrite writes one sector at a random LBA of the span and runs until
// the write is admitted; flushes complete during later writes' runs.
func zaCacheWrite() {
	s := &zaCache
	s.pending++
	if err := s.f.Write(s.rng.Int63n(s.span), 1, zaCacheDone); err != nil {
		panic(err)
	}
	s.eng.RunWhile(zaCacheBusy)
}

// zaCacheBatchLen is how many writes one measured run makes. AllocsPerRun
// reports whole allocations per run, rounded down, so a path allocating on
// only some writes reads as zero per write; counting a whole batch as one
// run reports every allocation.
const zaCacheBatchLen = 2000

func zaCacheBatch() {
	for i := 0; i < zaCacheBatchLen; i++ {
		zaCacheWrite()
	}
}

// TestWriteCacheIndexZeroAlloc pins the write cache's steady state: admitting
// a sector (index put, or a hit that re-dirties a flushing entry), flushing
// it (popDirty's index lookup) and committing it (index delete) allocate
// nothing once the entry freelist, the FIFO and the index have grown to
// size. The drive is large enough that no garbage collection runs, and its
// p2l chunks are materialized up front as a prefilled drive's would be, so
// the count isolates the cache from the collector and from first writes to
// fresh mapping chunks.
func TestWriteCacheIndexZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	cfg := smallConfig()
	cfg.Geometry.BlocksPerPlane = 128
	eng := sim.NewEngine()
	zaCache.eng = eng
	zaCache.f = New(eng, newZAFlash(eng, cfg), cfg)
	for psn := int64(0); psn < zaCache.f.p2l.Len(); psn += mapChunk {
		zaCache.f.p2l.Ptr(psn)
	}
	zaCache.rng = rand.New(rand.NewSource(1))
	zaCache.span = 4 * int64(cfg.CacheBytes/cfg.SectorSize)
	zaCache.pending = 0
	for i := 0; i < 5000; i++ {
		zaCacheWrite()
	}
	c := zaCache.f.Counters()
	if c.CacheHits == 0 || c.CacheEvictions == 0 || c.DataPagesProgrammed == 0 {
		t.Fatalf("warm-up did not exercise hits, flushes and commits: %+v", c)
	}
	if n := testing.AllocsPerRun(1, zaCacheBatch); n != 0 {
		t.Fatalf("%.0f allocations in %d steady-state cached writes, want 0", n, zaCacheBatchLen)
	}
	if gc := zaCache.f.Counters().GCRuns; gc != 0 {
		t.Fatalf("%d garbage collections ran; the drive must be large enough for none", gc)
	}
}
