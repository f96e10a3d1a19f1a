package ftl

import (
	"fmt"
	"math/rand"

	"ssdtp/internal/bitset"
	"ssdtp/internal/cow"
	"ssdtp/internal/nand"
	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
)

// Sentinel p2l values for physical sectors that never held host data. A
// sector that did hold data keeps the LSN its page carried after an
// overwrite, relocation or TRIM retires it: it is stale, not live, exactly
// when l2p no longer maps that LSN back to it (see live).
const (
	psnFree    int64 = -1 // never written, padding, or dead on arrival
	psnParity  int64 = -2 // RAIN parity
	psnMapMeta int64 = -3 // mapping-journal payload
)

// Chunk lengths for the FTL's COW arrays (DESIGN.md §12). mapChunk is the
// l2p/p2l chunk: 256 int32 entries, 1 KiB of table. A write to a random LBA
// touches a random l2p chunk, and a clone copies each chunk on its first
// write to it; a small chunk keeps that copy, and the clone's dirty set,
// close to what its tenants actually touch. (p2l is written only by the
// page being committed, whose chunk fills in program order.)
// blockChunk covers the per-block counters, which are small either way.
const (
	mapChunk   = 256
	blockChunk = 256
)

// cacheLatency is the host-visible cost of a DRAM cache hit/insert.
const cacheLatency = 2 * sim.Microsecond

// maxFlushInflight bounds concurrent cache-eviction page programs.
const maxFlushInflight = 8

// mapEntryBytes is the on-flash size of one mapping entry (as on the 840 EVO,
// which packs 26-bit entries into words): it sizes map journal pages and
// the eager mount's map reload.
const mapEntryBytes = 4

// stagingBytes is the small volatile write FIFO a controller retains even
// when its DRAM is designated for mapping metadata (CacheMapping).
const stagingBytes = 256 * 1024

// pageKind labels the origin of a page program.
type pageKind int

const (
	kindData pageKind = iota
	kindGC
	kindMap
	kindParity
	kindRefresh
)

// pageOp is one pending page program: which logical sectors it carries (or
// padding), where it goes, and what to do on commit. Ops are recycled
// through a per-FTL freelist (newPageOp/releaseOp): the write path retires
// one op per page programmed, and at steady state the pool serves them all
// without allocating.
type pageOp struct {
	kind    pageKind
	lsns    []int64       // per slot; <0 means padding/metadata
	old     []int64       // kindGC/kindRefresh: expected current psn per slot
	entries []*cacheEntry // kindData via cache: entry per slot (nil slots padded)
	pu      int
	slc     bool
	done    func()
	req     *obs.ReqAttr // host request this program serves; nil for background

	// Issue-time placement, recorded by tryIssue so the prebuilt progDone
	// callback can route the flash completion without a per-program closure.
	ppn int64
	gb  int64
	blk int32
	// progDone is built once per descriptor (pool growth only) and handed to
	// Flash.Program on every issue; it reads the fields above.
	progDone func(error)

	// Backing arrays (length secPerPage) retained across recycling; the
	// slices above are views into these — or nil, which several call sites
	// use to distinguish op flavors (entries==nil means a direct write).
	lsnsBuf    []int64
	oldBuf     []int64
	entriesBuf []*cacheEntry
	next       *pageOp // freelist link
}

// FTL is one flash translation layer instance. It is single-threaded on the
// simulation engine: all methods must be called from engine context (or
// before the engine runs), and all completions fire there.
type FTL struct {
	eng    *sim.Engine
	flash  Flash
	tflash TrackedFlash // flash, when it supports snapshot-able ops; else nil
	cfg    Config
	g      nand.Geometry
	rng    *rand.Rand
	rngSrc *countingSource // rng's source; draw count replayed on Restore

	secPerPage  int
	pagesPerBlk int
	secPerBlk   int64 // secPerPage × pagesPerBlk: blockOfPsn's one divisor
	blksPerPU   int
	numPU       int

	dims      [4]int // sizes by dimension constant
	orderDims [4]int // dimensions fastest-varying first
	allocSeq  int64
	puTotal   int64
	puOrder   []int // puForSeq over one period, by allocSeq % puTotal

	logicalSectors int64
	l2p            mapTable
	p2l            mapTable
	blockValid     *cow.Array[int32]
	blockInflight  []int32
	blockErases    *cow.Array[int32]
	validTotal     int64

	pus []puState

	cache *writeCache // nil when cfg.Cache == CacheNone

	// RAIN stripe progress (data pages since last parity).
	stripeProgress int

	// Mapping-journal state.
	entriesPerMapPage int64
	journalThreshold  int64
	mapUpdates        int64

	// Pseudo-SLC accounting overlay.
	pslcCredits int64
	pslcIndex   map[int64]int64 // lsn -> psn for data resident via pSLC path

	// inflightPages counts host-origin page programs (data, map journal,
	// parity); inflightGC counts relocation programs. Flush drains wait on
	// the former only — garbage collection is background work a FLUSH
	// command does not (and must not, or it could block indefinitely on a
	// full drive) wait out.
	inflightPages int64
	inflightGC    int64
	inflightReads int64
	drainWaiters  []func()

	idleEvent  sim.Event // zero value when no patrol armed; Cancel is then a no-op
	idleStreak int

	// Reliability management state.
	refreshing bitset.Set // by ppn: refresh in flight
	badBlocks  bitset.Set // by global block: retired

	// Per-PU garbage-collection callbacks and tracked-op tags, built once at
	// construction. Sharing one closure per (PU, role) keeps the steady-state
	// GC loop allocation-free, and — because the callbacks read their
	// position from pu.job rather than capturing it — Restore can re-attach
	// the identical callback to a resumed in-flight op.
	gcReadDones  []func(int, error)
	gcEraseDones []func(error)
	gcWriteDones []func()
	gcReadTags   []any
	gcEraseTags  []any

	// opFree recycles pageOps (linked through pageOp.next); readScratch is
	// the read path's reusable distinct-page list. Both exist so the
	// per-request hot path allocates nothing at steady state.
	opFree      *pageOp
	readScratch []int64
	// gatherBuf holds a relocation page's gathered l2p entries (commitPage
	// pass 1; a relocation op's own oldBuf holds its expected locations).
	gatherBuf []int64
	// reqFree / readOpFree recycle the per-request completion counters and
	// per-page read descriptors (see hostReq/readOp); puWakes holds one
	// prebuilt starved-PU kick closure per parallel unit; idleTickFn is the
	// idle-patrol callback built once so touchIdle re-arms without
	// allocating a method value per host request.
	reqFree    *hostReq
	readOpFree *readOp
	puWakes    []func()
	idleTickFn func()
	// cacheFlushDone is the shared completion closure for cache-eviction
	// programs (identical for every flush, so built once, lazily).
	cacheFlushDone func()

	counters Counters

	tr   *obs.Tracer   // nil unless cfg.Trace set; all sites nil-safe
	prof *obs.Profiler // latency attribution; nil unless cfg.Trace set
}

// Dimension indices for allocation orders.
const (
	dimC = iota
	dimW
	dimD
	dimP
)

// New builds an FTL over flash with the given configuration. It panics on
// invalid configuration or on a flash/config geometry mismatch: both are
// construction-time programming errors.
func New(eng *sim.Engine, flash Flash, cfg Config) *FTL {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := flash.Geometry()
	if g != cfg.Geometry {
		panic("ftl: flash geometry does not match config geometry")
	}
	src := &countingSource{src: rand.NewSource(cfg.Seed)}
	f := &FTL{
		eng:         eng,
		flash:       flash,
		cfg:         cfg,
		g:           g,
		rng:         rand.New(src),
		rngSrc:      src,
		secPerPage:  g.PageSize / cfg.SectorSize,
		pagesPerBlk: g.PagesPerBlock,
		blksPerPU:   g.BlocksPerPlane,
		tr:          cfg.Trace,
		prof:        cfg.Trace.Prof(),
	}
	f.secPerBlk = int64(f.secPerPage) * int64(f.pagesPerBlk)
	f.gatherBuf = make([]int64, f.secPerPage)
	f.tflash, _ = flash.(TrackedFlash)
	f.dims = [4]int{
		dimC: flash.Channels(),
		dimW: flash.ChipsPerChannel(),
		dimD: g.Dies,
		dimP: g.Planes,
	}
	f.numPU = f.dims[dimC] * f.dims[dimW] * f.dims[dimD] * f.dims[dimP]
	f.puTotal = int64(f.numPU)
	switch cfg.Alloc {
	case AllocCWDP:
		f.orderDims = [4]int{dimC, dimW, dimD, dimP}
	case AllocPDWC:
		f.orderDims = [4]int{dimP, dimD, dimW, dimC}
	case AllocWDPC:
		f.orderDims = [4]int{dimW, dimD, dimP, dimC}
	case AllocDPCW:
		f.orderDims = [4]int{dimD, dimP, dimC, dimW}
	default:
		panic("ftl: unknown allocation order")
	}
	f.puOrder = make([]int, f.numPU)
	for i := range f.puOrder {
		f.puOrder[i] = f.puForSeq(int64(i))
	}

	totalPages := int64(f.numPU) * int64(f.blksPerPU) * int64(f.pagesPerBlk)
	totalSectors := totalPages * int64(f.secPerPage)
	logical := int64(float64(totalSectors) * (1 - cfg.OverProvision))
	logical -= logical % int64(f.secPerPage)
	f.logicalSectors = logical

	// The mapping tables dominate a drive's resident memory, so they live in
	// COW chunked arrays: psnFree is the arrays' implicit fill value, a fresh
	// FTL materializes nothing, and snapshot clones share chunks with the
	// image until first write (DESIGN.md §12). blockInflight stays a plain
	// slice — it is transient scheduling state, provably all-zero whenever a
	// snapshot is legal.
	f.l2p = newMapTable(logical)
	f.p2l = newMapTable(totalSectors)
	totalBlocks := int64(f.numPU) * int64(f.blksPerPU)
	f.blockValid = cow.NewArray[int32](totalBlocks, blockChunk, 0)
	f.blockInflight = make([]int32, totalBlocks)
	f.blockErases = cow.NewArray[int32](totalBlocks, blockChunk, 0)

	f.pus = make([]puState, f.numPU)
	for i := range f.pus {
		pu := &f.pus[i]
		pu.index = i
		ch, chip, die, plane := f.puCoords(i)
		pu.ch, pu.chip, pu.die, pu.plane = ch, chip, die, plane
		pu.free = make([]int32, 0, f.blksPerPU)
		for b := f.blksPerPU - 1; b >= 0; b-- {
			pu.free = append(pu.free, int32(b))
		}
	}

	f.gcReadDones = make([]func(int, error), f.numPU)
	f.gcEraseDones = make([]func(error), f.numPU)
	f.gcWriteDones = make([]func(), f.numPU)
	f.gcReadTags = make([]any, f.numPU)
	f.gcEraseTags = make([]any, f.numPU)
	for i := range f.pus {
		pu := &f.pus[i]
		f.gcReadDones[i] = func(int, error) { pu.job.next++; f.gcReadNext(pu) }
		f.gcEraseDones[i] = func(err error) { f.gcEraseDone(pu, err) }
		f.gcWriteDones[i] = func() { pu.job.next++; f.gcWriteNext(pu) }
		f.gcReadTags[i] = gcReadTag{pu: i}
		f.gcEraseTags[i] = gcEraseTag{pu: i}
	}
	f.puWakes = make([]func(), f.numPU)
	for i := range f.pus {
		pu := &f.pus[i]
		f.puWakes[i] = func() {
			f.maybeStartGC(pu, false)
			f.drainPUWaiters(pu)
			f.pumpDrain()
		}
	}
	f.idleTickFn = f.idleTick

	switch cfg.Cache {
	case CacheData:
		f.cache = newWriteCache(cfg.CacheBytes, cfg.SectorSize)
	case CacheMapping:
		f.cache = newWriteCache(stagingBytes, cfg.SectorSize)
	}

	f.entriesPerMapPage = int64(g.PageSize / mapEntryBytes)
	switch cfg.Cache {
	case CacheMapping:
		th := int64(cfg.CacheBytes) / mapEntryBytes
		if th < f.entriesPerMapPage {
			th = f.entriesPerMapPage
		}
		f.journalThreshold = th
	default:
		f.journalThreshold = f.entriesPerMapPage
	}

	if cfg.PSLCBytes > 0 {
		f.pslcCredits = int64(cfg.PSLCBytes)
		f.pslcIndex = make(map[int64]int64)
	}
	return f
}

// Config returns the (defaulted) configuration in effect.
func (f *FTL) Config() Config { return f.cfg }

// LogicalSectors returns the host-visible sector count.
func (f *FTL) LogicalSectors() int64 { return f.logicalSectors }

// SectorSize returns the logical sector size in bytes.
func (f *FTL) SectorSize() int { return f.cfg.SectorSize }

// Counters returns a copy of the FTL's counters.
func (f *FTL) Counters() Counters { return f.counters }

// MemStats returns chunk-level memory accounting across the FTL's COW
// arrays (l2p, p2l, block counters).
func (f *FTL) MemStats() cow.Stats {
	var st cow.Stats
	st.Add(f.l2p.Stats())
	st.Add(f.p2l.Stats())
	st.Add(f.blockValid.Stats())
	st.Add(f.blockErases.Stats())
	return st
}

// VisitSharedChunks calls fn for every chunk the FTL shares with an image,
// with a comparable identity for cross-drive deduplication (see
// cow.Array.VisitShared).
func (f *FTL) VisitSharedChunks(fn func(id any, bytes int64)) {
	f.l2p.VisitShared(fn)
	f.p2l.VisitShared(fn)
	f.blockValid.VisitShared(fn)
	f.blockErases.VisitShared(fn)
}

// MapEntry returns the physical sector the logical sector maps to, or -1 if
// unmapped. The firmware package exposes this table through simulated DRAM.
func (f *FTL) MapEntry(lsn int64) int64 {
	if lsn < 0 || lsn >= f.logicalSectors {
		return psnFree
	}
	return f.l2p.At(lsn)
}

// PSLCSnapshot copies the pSLC residency index (lsn -> psn) into dst and
// returns it; a nil dst is allocated, a non-nil dst is cleared first so the
// result is exactly the current index (stale keys from a previous call do
// not survive). The firmware package materializes the 840 EVO's hashed pSLC
// index from this.
func (f *FTL) PSLCSnapshot(dst map[int64]int64) map[int64]int64 {
	if dst == nil {
		dst = make(map[int64]int64, len(f.pslcIndex))
	} else {
		clear(dst)
	}
	for k, v := range f.pslcIndex {
		dst[k] = v
	}
	return dst
}

// FreeBlocks returns the total free-block count across parallel units.
func (f *FTL) FreeBlocks() int {
	n := 0
	for i := range f.pus {
		n += len(f.pus[i].free)
	}
	return n
}

// ValidSectors returns the number of live mapped sectors on flash (excluding
// dirty cache contents).
func (f *FTL) ValidSectors() int64 { return f.validTotal }

// DirtyCacheBytes returns the bytes currently dirty in the write cache (0
// without a data cache) — a telemetry gauge for the timeline view.
func (f *FTL) DirtyCacheBytes() int64 {
	if f.cache == nil {
		return 0
	}
	return int64(f.cache.dirtyBytes)
}

// BacklogDepth returns how many operations are queued behind resource
// shortages right now: page programs parked for a free block plus host writes
// stalled on cache admission.
func (f *FTL) BacklogDepth() int64 {
	var n int64
	for i := range f.pus {
		n += int64(len(f.pus[i].waiters))
	}
	if f.cache != nil {
		n += int64(len(f.cache.admitWaiters))
	}
	return n
}

// GCRunningPUs returns how many parallel units are mid-collection.
func (f *FTL) GCRunningPUs() int64 {
	var n int64
	for i := range f.pus {
		if f.pus[i].gcRunning {
			n++
		}
	}
	return n
}

// FreeBlocksMin returns the scarcest parallel unit's free-block count — the
// transparency log page's slack gauge: host writes stall behind GC exactly
// when some PU (not the average) runs out.
func (f *FTL) FreeBlocksMin() int {
	best := -1
	for i := range f.pus {
		if n := len(f.pus[i].free); best < 0 || n < best {
			best = n
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// GCReserveBlocks returns the per-PU free-block low-water mark garbage
// collection defends (the disclosed GC reserve).
func (f *FTL) GCReserveBlocks() int { return f.cfg.GCLowWater }

// GCVictimValidPPM returns the mean valid-page fraction (parts per million)
// of victims currently being collected, 0 when no collection is in flight.
// High values mean GC is paying a lot of relocation per reclaimed block — the
// log-page signal that the drive is collecting poor victims under pressure.
func (f *FTL) GCVictimValidPPM() int64 {
	blkPages := int64(f.pagesPerBlk)
	if blkPages == 0 {
		return 0
	}
	var sum, n int64
	for i := range f.pus {
		if job := f.pus[i].job; job != nil {
			sum += int64(job.nPages) * 1_000_000 / blkPages
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// CacheCapBytes returns the write cache's capacity (0 without a data cache).
func (f *FTL) CacheCapBytes() int64 {
	if f.cache == nil {
		return 0
	}
	return int64(f.cache.capBytes)
}

// RefreshPending returns how many blocks are queued for read-disturb refresh
// but not yet rewritten — the log page's background-work debt gauge.
func (f *FTL) RefreshPending() int64 { return int64(f.refreshing.Count()) }

// setGCRunning flips a PU's collection flag, keeping the profiler's
// GC-interference gauge in lock-step so admission stalls are charged to the
// right cause at the instant collection starts or stops. Every gcRunning
// assignment must go through here (snapshot restore credits the gauge
// separately).
func (f *FTL) setGCRunning(pu *puState, v bool) {
	if pu.gcRunning == v {
		return
	}
	pu.gcRunning = v
	if v {
		f.prof.GCBusy(1)
	} else {
		f.prof.GCBusy(-1)
	}
}

// puCoords decomposes a PU index into (channel, chip, die, plane) using the
// canonical channel-major layout.
func (f *FTL) puCoords(idx int) (ch, chip, die, plane int) {
	plane = idx % f.dims[dimP]
	idx /= f.dims[dimP]
	die = idx % f.dims[dimD]
	idx /= f.dims[dimD]
	chip = idx % f.dims[dimW]
	idx /= f.dims[dimW]
	return idx, chip, die, plane
}

// puIndex composes the canonical PU index.
func (f *FTL) puIndex(ch, chip, die, plane int) int {
	return ((ch*f.dims[dimW]+chip)*f.dims[dimD]+die)*f.dims[dimP] + plane
}

// puForSeq maps an allocation sequence number to a PU per the configured
// allocation order (fastest-varying dimension first). New tabulates one
// period of it into puOrder, which nextPU and Mount read.
func (f *FTL) puForSeq(seq int64) int {
	s := seq % f.puTotal
	var coord [4]int
	for _, d := range f.orderDims {
		coord[d] = int(s % int64(f.dims[d]))
		s /= int64(f.dims[d])
	}
	return f.puIndex(coord[dimC], coord[dimW], coord[dimD], coord[dimP])
}

// nextPU advances the striping sequence and returns the PU for the next
// page, from the period New precomputes with puForSeq.
func (f *FTL) nextPU() int {
	pu := f.puOrder[f.allocSeq%f.puTotal]
	f.allocSeq++
	return pu
}

// Geometry helpers over global physical sector/page/block numbering.

func (f *FTL) ppnOf(pu int, blk int32, page int) int64 {
	pagesPerPU := int64(f.blksPerPU) * int64(f.pagesPerBlk)
	return int64(pu)*pagesPerPU + int64(blk)*int64(f.pagesPerBlk) + int64(page)
}

func (f *FTL) blockOfPsn(psn int64) int64 {
	return psn / f.secPerBlk
}

func (f *FTL) addrOfPPN(ppn int64) (pu int, a nand.Addr) {
	pagesPerPU := int64(f.blksPerPU) * int64(f.pagesPerBlk)
	pu = int(ppn / pagesPerPU)
	rem := ppn % pagesPerPU
	p := &f.pus[pu]
	a = nand.Addr{
		Die:   p.die,
		Plane: p.plane,
		Block: int(rem / int64(f.pagesPerBlk)),
		Page:  int(rem % int64(f.pagesPerBlk)),
	}
	return pu, a
}

// newPageOp returns a recycled (or fresh) page op for the given kind and
// PU. The op's slice views start nil; fill the ones the kind uses from the
// backing arrays.
func (f *FTL) newPageOp(kind pageKind, pu int) *pageOp {
	op := f.opFree
	if op != nil {
		f.opFree = op.next
		op.next = nil
	} else {
		op = &pageOp{
			lsnsBuf:    make([]int64, f.secPerPage),
			oldBuf:     make([]int64, f.secPerPage),
			entriesBuf: make([]*cacheEntry, f.secPerPage),
		}
		op.progDone = func(err error) { f.onProgramDone(op, err) }
	}
	op.kind = kind
	op.pu = pu
	return op
}

// releaseOp recycles a committed op. Callers must be done with every view:
// the entry pointers are cleared so recycled cache entries are not pinned,
// and the slice views are reset so the next tenant's kind checks (entries
// == nil, old == nil) see a clean op.
func (f *FTL) releaseOp(op *pageOp) {
	op.done = nil
	op.slc = false
	op.req = nil
	op.lsns, op.old, op.entries = nil, nil, nil
	for i := range op.entriesBuf {
		op.entriesBuf[i] = nil
	}
	op.next = f.opFree
	f.opFree = op
}

// hostReq is a pooled per-request completion counter: one per host
// write/read that fans out into several page operations. fire is built once
// per descriptor (pool growth only) and decrements pending, running — and
// recycling — on the last completion, so the steady-state fan-in allocates
// nothing.
type hostReq struct {
	f       *FTL
	pending int
	done    func()
	fire    func()
	next    *hostReq
}

func (f *FTL) newHostReq(pending int, done func()) *hostReq {
	r := f.reqFree
	if r == nil {
		r = &hostReq{f: f}
		r.fire = func() {
			r.pending--
			if r.pending != 0 {
				return
			}
			done := r.done
			r.done = nil
			r.next = r.f.reqFree
			r.f.reqFree = r
			if done != nil {
				done()
			}
		}
	} else {
		f.reqFree = r.next
		r.next = nil
	}
	r.pending = pending
	r.done = done
	return r
}

// readOp is a pooled per-page read continuation: the flash-read completion
// for one distinct physical page of a host read. Like hostReq, fire is
// built once per descriptor and recycles it before fanning into the
// request counter.
type readOp struct {
	f    *FTL
	ppn  int64
	req  *hostReq
	fire func(int, error)
	next *readOp
}

func (f *FTL) newReadOp(ppn int64, req *hostReq) *readOp {
	ro := f.readOpFree
	if ro == nil {
		ro = &readOp{f: f}
		ro.fire = func(bits int, _ error) {
			f := ro.f
			f.inflightReads--
			f.applyReadHealth(ro.ppn, bits)
			req := ro.req
			ro.req = nil
			ro.next = f.readOpFree
			f.readOpFree = ro
			req.fire()
		}
	} else {
		f.readOpFree = ro.next
		ro.next = nil
	}
	ro.ppn = ppn
	ro.req = req
	return ro
}

// fireDoneArg invokes a func() carried through ScheduleArg's descriptor
// slot. Storing a func value in the interface does not allocate, so
// scheduleDone is closure-free.
func fireDoneArg(arg any) {
	if done, ok := arg.(func()); ok && done != nil {
		done()
	}
}

// scheduleDone completes a request after DRAM-path latency, tolerating nil
// callbacks.
func (f *FTL) scheduleDone(done func()) {
	f.eng.ScheduleArg(cacheLatency, fireDoneArg, done)
}

// checkRange validates a host sector range.
func (f *FTL) checkRange(lsn int64, count int) error {
	if lsn < 0 || count < 0 || lsn+int64(count) > f.logicalSectors {
		return fmt.Errorf("ftl: sector range [%d,+%d) outside logical space %d", lsn, count, f.logicalSectors)
	}
	return nil
}

// Write submits a host write of count sectors starting at lsn; done fires
// when the request is durable per the cache designation (admitted to the
// data cache, or programmed to flash). The returned error covers only
// immediate argument problems.
func (f *FTL) Write(lsn int64, count int, done func()) error {
	if err := f.checkRange(lsn, count); err != nil {
		return err
	}
	f.touchIdle()
	f.counters.HostWriteRequests++
	f.counters.HostSectorsWritten += int64(count)
	if count == 0 {
		f.scheduleDone(done)
		return nil
	}
	if f.cache != nil {
		f.writeCached(lsn, count, done)
	} else {
		f.writeDirect(lsn, count, done)
	}
	return nil
}

// writeDirect (mapping-cache designation) coalesces only within the request:
// sectors group into pages, the tail page is padded, and the request
// completes when every page program has committed.
func (f *FTL) writeDirect(lsn int64, count int, done func()) {
	pages := (count + f.secPerPage - 1) / f.secPerPage
	req := f.newHostReq(pages, done)
	for p := 0; p < pages; p++ {
		op := f.newPageOp(kindData, f.nextPU())
		lsns := op.lsnsBuf
		for i := range lsns {
			s := int(int64(p)*int64(f.secPerPage)) + i
			if s < count {
				lsns[i] = lsn + int64(s)
			} else {
				lsns[i] = -1
			}
		}
		op.lsns = lsns
		op.slc = f.takePSLCCredit()
		op.req = f.prof.Cur()
		op.done = req.fire
		f.submitPage(op)
	}
}

// Read submits a host read; done fires when all sectors are available
// (cache hits cost DRAM latency; misses pay flash page reads, deduplicated
// per physical page). Unmapped sectors read as zeros instantly.
func (f *FTL) Read(lsn int64, count int, done func()) error {
	if err := f.checkRange(lsn, count); err != nil {
		return err
	}
	f.touchIdle()
	f.counters.HostReadRequests++
	f.counters.HostSectorsRead += int64(count)
	// Distinct physical pages in first-touch order. A reused slice replaces
	// the old per-request map: no allocation, and — unlike map iteration —
	// the flash reads now issue in a deterministic order. (The linear dedup
	// scan is cheap: requests span at most a few dozen pages.)
	pages := f.readScratch[:0]
	for s := int64(0); s < int64(count); s++ {
		l := lsn + s
		if f.cache != nil {
			if f.cache.entries.get(l) != nil {
				f.counters.CacheReadHits++
				continue
			}
		}
		psn := f.l2p.At(l)
		if psn < 0 {
			continue
		}
		ppn := psn / int64(f.secPerPage)
		seen := false
		for _, p := range pages {
			if p == ppn {
				seen = true
				break
			}
		}
		if !seen {
			pages = append(pages, ppn)
		}
	}
	f.readScratch = pages
	attr := f.prof.Cur()
	if len(pages) == 0 {
		// Served entirely from DRAM (cache hits and/or unmapped zeros).
		attr.Mark(obs.PhaseCacheHit)
		f.scheduleDone(done)
		return nil
	}
	req := f.newHostReq(len(pages), done)
	for _, ppn := range pages {
		pu, a := f.addrOfPPN(ppn)
		p := &f.pus[pu]
		f.counters.PageReads++
		f.inflightReads++
		f.prof.SetOp(attr)
		f.flash.Read(p.ch, p.chip, a, f.cfg.GCSuspend, f.newReadOp(ppn, req).fire)
	}
	return nil
}

// Trim unmaps a sector range (TRIM/discard). It is immediate: no flash
// traffic beyond eventual journaling of the mapping updates.
func (f *FTL) Trim(lsn int64, count int) error {
	if err := f.checkRange(lsn, count); err != nil {
		return err
	}
	f.touchIdle()
	for s := int64(0); s < int64(count); s++ {
		l := lsn + s
		if f.cache != nil {
			f.cache.drop(l)
		}
		if psn := f.l2p.At(l); psn >= 0 {
			f.invalidate(psn)
			f.l2p.Set(l, psnFree)
			f.noteMapUpdate()
		}
		delete(f.pslcIndex, l)
		f.counters.TrimmedSectors++
	}
	return nil
}

// Flush drains the write cache, journals residual mapping updates, closes
// the open RAIN stripe with a parity page, and calls done once everything
// (including any garbage collection those writes triggered) has settled.
func (f *FTL) Flush(done func()) {
	if f.tr.Enabled() {
		f.tr.Emit("ftl.flush.begin", obs.Int("waiters", int64(len(f.drainWaiters)+1)))
	}
	f.drainWaiters = append(f.drainWaiters, done)
	f.pumpDrain()
}

// pumpDrain advances the drain state machine. Called whenever in-flight work
// completes.
func (f *FTL) pumpDrain() {
	if len(f.drainWaiters) == 0 {
		return
	}
	if f.cache != nil {
		for f.cache.dirtyCount > 0 && f.cache.inflight < maxFlushInflight {
			f.startCacheFlush()
		}
		if f.cache.dirtyCount > 0 || f.cache.inflight > 0 {
			return
		}
	}
	if f.inflightPages > 0 {
		return
	}
	// Journal residual mapping updates only once relocation traffic has
	// settled: garbage collection dirties the map continuously, and a
	// FLUSH that chased those updates could never complete on a busy
	// drive.
	if f.mapUpdates > 0 && f.inflightGC == 0 {
		f.journalResidual()
		return // re-pumped when the journal pages commit
	}
	if f.inflightGC > 0 {
		return
	}
	if f.cfg.RAIN.Enabled() && f.stripeProgress > 0 {
		f.writeParity()
		return
	}
	ws := f.drainWaiters
	f.drainWaiters = nil
	if f.tr.Enabled() {
		f.tr.Emit("ftl.flush.end", obs.Int("waiters", int64(len(ws))))
	}
	for _, w := range ws {
		if w != nil {
			w()
		}
	}
}

// invalidate retires a physical sector whose LSN is being remapped or
// trimmed: block accounting only. Its p2l entry keeps the stale LSN, which
// live tells apart from a live one through l2p, so forgetting a sector
// touches no p2l line.
func (f *FTL) invalidate(psn int64) {
	gb := f.blockOfPsn(psn)
	*f.blockValid.Ptr(gb)--
	f.validTotal--
	f.wakeStarvedPU(gb)
}

// wakeStarvedPU re-arms collection on the block's parallel unit when an
// invalidation may have just created the victim a starved PU was waiting
// for. Without this a PU wedges quietly: once pickVictim comes up empty,
// only the PU's own commits re-check it, and a PU with every page op parked
// has no commits coming. Invalidations that originate elsewhere — cache
// writeback committing on another PU, or a TRIM — are exactly the events
// that break that stalemate, so they must kick the block's owner. The kick
// is deferred through the engine so block accounting is never reentered
// mid-commit; duplicate kicks are harmless (maybeStartGC and
// drainPUWaiters are idempotent).
func (f *FTL) wakeStarvedPU(gb int64) {
	puIdx := int(gb / int64(f.blksPerPU))
	pu := &f.pus[puIdx]
	if pu.gcRunning || (len(pu.waiters) == 0 && len(pu.free) >= f.cfg.GCLowWater) {
		return
	}
	f.eng.Schedule(0, f.puWakes[puIdx])
}

// live reports whether physical sector psn holds live host data, and the
// LSN its page carried. It is exact without invalidation writes:
//   - p2l[psn] is written only when psn's page commits, with the LSN its
//     slot carried, so whenever l2p[lsn] == psn the commit that set it also
//     set p2l[psn] = lsn;
//   - a stale entry is never live: the overwrite, relocation or TRIM that
//     moved l2p[lsn] away from psn retired the sector, and l2p points at psn
//     again only after a new program of psn;
//   - an erased block keeps its stale entries until its pages are programmed
//     again, and none of them is live: a block is erased only after its live
//     sectors have moved, and pickVictim takes only blocks with no program
//     in flight.
func (f *FTL) live(psn int64) (lsn int64, ok bool) {
	lsn = f.p2l.At(psn)
	return lsn, lsn >= 0 && f.l2p.At(lsn) == psn
}

// commitMapping installs lsn -> psn, invalidating the prior location old
// (lsn's current l2p entry, which commitPage gathered before the commit).
func (f *FTL) commitMapping(lsn, psn, old int64) {
	if old >= 0 {
		f.invalidate(old)
	}
	f.l2p.Set(lsn, psn)
	f.p2l.Set(psn, lsn)
	*f.blockValid.Ptr(f.blockOfPsn(psn))++
	f.validTotal++
	f.noteMapUpdate()
}

// takePSLCCredit consumes one page worth of pseudo-SLC budget if available.
func (f *FTL) takePSLCCredit() bool {
	if f.pslcCredits < int64(f.g.PageSize) {
		return false
	}
	f.pslcCredits -= int64(f.g.PageSize)
	return true
}

// touchIdle resets the idle timer; with IdleGC enabled, a quiet period
// triggers background collection (the "unpredictable background operations"
// of §2.1).
func (f *FTL) touchIdle() {
	if !f.cfg.IdleGC {
		return
	}
	f.idleEvent.Cancel()
	f.idleStreak = 0
	f.idleEvent = f.eng.Schedule(f.cfg.IdleDelay, f.idleTickFn)
}

// idlePatrolCap bounds how long the idle patrol keeps rescheduling itself
// with exponential backoff before going quiet until the next host activity:
// backoff doubles from IdleDelay to ~30 simulated minutes, then a fixed
// number of long-period patrols cover several further hours. The cap keeps
// the event queue finite so simulations drain.
const idlePatrolCap = 40

// idleTick runs opportunistic background work: replenish pSLC credits and
// collect toward high water everywhere.
func (f *FTL) idleTick() {
	f.idleEvent = sim.Event{}
	if f.cfg.PSLCBytes > 0 {
		f.pslcCredits = int64(f.cfg.PSLCBytes)
	}
	f.scrubTick()
	for i := range f.pus {
		pu := &f.pus[i]
		if len(pu.free) < f.cfg.GCHighWater {
			f.maybeStartGC(pu, true)
		}
		f.maybeWearLevel(pu)
	}
	// Re-arm the patrol with exponential backoff while the host stays
	// quiet, so retention aging is caught hours into an idle period.
	if f.idleStreak < idlePatrolCap {
		delay := f.cfg.IdleDelay << uint(f.idleStreak)
		if max := int64(30 * 60 * sim.Second); delay > max {
			delay = max
		}
		f.idleStreak++
		f.idleEvent = f.eng.Schedule(delay, f.idleTickFn)
	}
}
