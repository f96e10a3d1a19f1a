package ftl

import (
	"fmt"
	"sort"

	"ssdtp/internal/bitset"
	"ssdtp/internal/cow"
	"ssdtp/internal/onfi"
	"ssdtp/internal/sim"
)

// Snapshot/restore of FTL state (DESIGN.md §8). A snapshot is taken between
// engine events at a drained instant — host queue empty, cache clean, no page
// programs in flight — which is exactly the state a FLUSH leaves behind. That
// instant is NOT quiescent: trailing garbage collection may still have victim
// reads or erases in the NAND pipe (flush deliberately does not wait those
// out). Those ops are captured through the TrackedFlash interface and
// resumed, mid-operation, on the clone.

// gcJobSnap is the serializable image of a gcJob.
type gcJobSnap struct {
	victim    int32
	moves     []gcMove
	readPages []int
	nPages    int
	phase     uint8
	next      int
}

// puSnap is the serializable image of one parallel unit.
type puSnap struct {
	free      []int32
	active    openBlock
	gcActive  openBlock
	full      []int32
	gcRunning bool
	job       *gcJobSnap
}

// State is an opaque, sealed image of an FTL's mutable state, safe to hold
// across further activity on the source and to restore any number of times,
// concurrently. The mapping tables and block counters are cow.Images:
// Snapshot marks the source's chunks shared and aliases them (no element
// copies), Restore aliases them into the clone, and either side copies a
// chunk only on its first write to it (DESIGN.md §12).
type State struct {
	allocSeq    int64
	l2p         cow.Image[int32]
	p2l         cow.Image[int32]
	blockValid  cow.Image[int32]
	blockErases cow.Image[int32]
	validTotal  int64
	pus         []puSnap
	mapUpdates  int64
	pslcCredits int64
	pslcIndex   map[int64]int64
	counters    Counters
	badBlocks   bitset.Set
	idleArmed   bool
	idleTime    sim.Time
	idleSeq     uint64
	idleStreak  int
	rngDraws    uint64
	ops         []onfi.OpState
}

// PendingEvents returns how many engine events this snapshot accounts for:
// the event-phase in-flight ops plus the idle-patrol event. The device layer
// asserts that this equals the engine's pending count at capture time — any
// other pending event belongs to state the snapshot cannot carry.
func (st *State) PendingEvents() int {
	n := 0
	for _, op := range st.ops {
		if !op.Queued() {
			n++
		}
	}
	if st.idleArmed {
		n++
	}
	return n
}

// Snapshot captures the FTL at a drained instant. It panics if the FTL is
// not in such a state — host work in flight, dirty cache, pending drain —
// because those states hold closures (request completions) that cannot be
// serialized; Flush first, then snapshot from the flush callback or later.
func (f *FTL) Snapshot() *State {
	if f.inflightPages != 0 || f.inflightReads != 0 || f.inflightGC != 0 {
		panic(fmt.Sprintf("ftl: Snapshot with work in flight (pages=%d reads=%d gc=%d)",
			f.inflightPages, f.inflightReads, f.inflightGC))
	}
	if len(f.drainWaiters) != 0 {
		panic("ftl: Snapshot with drain waiters")
	}
	if f.stripeProgress != 0 {
		panic("ftl: Snapshot with an open RAIN stripe")
	}
	if f.refreshing.Any() {
		panic("ftl: Snapshot with refresh programs outstanding")
	}
	if c := f.cache; c.entries.n != 0 || c.dirtyCount != 0 || c.dirtyBytes != 0 ||
		c.flushingBytes != 0 || c.inflight != 0 || len(c.admitWaiters) != 0 {
		panic("ftl: Snapshot with a non-clean cache")
	}
	for i := range f.blockInflight {
		if f.blockInflight[i] != 0 {
			panic("ftl: Snapshot with block programs in flight")
		}
	}

	st := &State{
		allocSeq:    f.allocSeq,
		l2p:         f.l2p.Snapshot(),
		p2l:         f.p2l.Snapshot(),
		blockValid:  f.blockValid.Snapshot(),
		blockErases: f.blockErases.Snapshot(),
		validTotal:  f.validTotal,
		mapUpdates:  f.mapUpdates,
		pslcCredits: f.pslcCredits,
		counters:    f.counters,
		badBlocks:   f.badBlocks.Clone(),
		idleStreak:  f.idleStreak,
	}
	if f.rngSrc != nil {
		st.rngDraws = f.rngSrc.n
	}
	if f.pslcIndex != nil {
		st.pslcIndex = make(map[int64]int64, len(f.pslcIndex))
		for k, v := range f.pslcIndex {
			st.pslcIndex[k] = v
		}
	}
	if f.idleEvent.Pending() {
		st.idleArmed = true
		st.idleTime = f.idleEvent.Time()
		st.idleSeq = f.idleEvent.Seq()
	}

	st.pus = make([]puSnap, len(f.pus))
	jobs := 0
	for i := range f.pus {
		pu := &f.pus[i]
		if len(pu.waiters) != 0 {
			panic("ftl: Snapshot with queued page ops")
		}
		s := &st.pus[i]
		s.free = append([]int32(nil), pu.free...)
		s.full = append([]int32(nil), pu.full...)
		s.active, s.gcActive = pu.active, pu.gcActive
		s.gcRunning = pu.gcRunning
		if job := pu.job; job != nil {
			if job.phase == jobWriting {
				panic("ftl: Snapshot with a GC relocation program in flight")
			}
			if job.sp.Active() {
				panic("ftl: Snapshot with a live GC trace span")
			}
			s.job = &gcJobSnap{
				victim:    job.victim,
				moves:     append([]gcMove(nil), job.moves...),
				readPages: append([]int(nil), job.readPages...),
				nPages:    job.nPages,
				phase:     job.phase,
				next:      job.next,
			}
			jobs++
		}
	}

	if f.tflash != nil {
		st.ops = f.tflash.SnapshotOps()
	}
	if jobs > 0 && f.tflash == nil {
		panic("ftl: Snapshot with GC in flight requires a TrackedFlash")
	}
	// Cross-check: every captured op must route to a live job (or a scrub
	// probe), and every mid-flight job must own exactly one op.
	owned := make(map[int]int, jobs)
	for _, op := range st.ops {
		switch tag := op.Tag.(type) {
		case gcReadTag:
			job := st.pus[tag.pu].job
			if job == nil || job.phase != jobReading {
				panic("ftl: captured GC read without a matching reading job")
			}
			owned[tag.pu]++
		case gcEraseTag:
			job := st.pus[tag.pu].job
			if job == nil || job.phase != jobErasing {
				panic("ftl: captured GC erase without a matching erasing job")
			}
			owned[tag.pu]++
		case scrubTag:
			// Self-contained: the tag carries the target page.
		default:
			panic("ftl: captured op with a foreign tag")
		}
	}
	for i := range st.pus {
		if job := st.pus[i].job; job != nil && owned[i] != 1 {
			panic(fmt.Sprintf("ftl: job on pu %d owns %d in-flight ops, want 1", i, owned[i]))
		}
	}
	return st
}

// Share points the image's table chunks at prev's wherever they hold the
// same bytes (cow.Image.Share), so two sealed images of like FTLs keep one
// copy of what they have in common. Share rewrites st's chunk tables, so
// nothing may restore from st while it runs.
func (st *State) Share(prev *State) {
	st.l2p.Share(prev.l2p)
	st.p2l.Share(prev.p2l)
	st.blockValid.Share(prev.blockValid)
	st.blockErases.Share(prev.blockErases)
}

// Restore overwrites a freshly constructed FTL (same Config, engine already
// rebased to the capture time, flash chips and buses already restored) with
// a snapshot, then reinstates the in-flight tracked ops and the idle-patrol
// event in their exact engine order.
func (f *FTL) Restore(st *State) {
	if f.allocSeq != 0 || f.validTotal != 0 || (f.rngSrc != nil && f.rngSrc.n != 0) {
		panic("ftl: Restore target must be freshly constructed")
	}
	if len(st.pus) != len(f.pus) || (st.pslcIndex != nil) != (f.pslcIndex != nil) ||
		(st.rngDraws != 0 && f.rng == nil) {
		panic("ftl: Restore configuration mismatch")
	}
	f.allocSeq = st.allocSeq
	// Alias the image's chunks; cow.Array.Restore panics on shape mismatch,
	// which subsumes the old length checks.
	f.l2p.Restore(st.l2p)
	f.p2l.Restore(st.p2l)
	f.blockValid.Restore(st.blockValid)
	f.blockErases.Restore(st.blockErases)
	f.validTotal = st.validTotal
	f.mapUpdates = st.mapUpdates
	f.pslcCredits = st.pslcCredits
	for k, v := range st.pslcIndex {
		f.pslcIndex[k] = v
	}
	f.counters = st.counters
	f.badBlocks.CopyFrom(&st.badBlocks)
	f.idleStreak = st.idleStreak

	for i := range f.pus {
		pu, s := &f.pus[i], &st.pus[i]
		pu.free = append(pu.free[:0], s.free...)
		pu.full = append([]int32(nil), s.full...)
		pu.active, pu.gcActive = s.active, s.gcActive
		pu.gcRunning = s.gcRunning
		if s.gcRunning {
			// Credit the profiler's interference gauge exactly as the live
			// setGCRunning transitions would have, so a clone classifies
			// admission stalls identically to a from-scratch build.
			f.prof.GCBusy(1)
		}
		if s.job != nil {
			pu.job = &gcJob{
				victim:    s.job.victim,
				moves:     append([]gcMove(nil), s.job.moves...),
				readPages: append([]int(nil), s.job.readPages...),
				nPages:    s.job.nPages,
				phase:     s.job.phase,
				next:      s.job.next,
			}
		}
	}

	// Replay the rng to its captured stream position: pickVictim and the
	// scrub patrol must draw the same values the source would have drawn.
	// A config without a source captures no draws.
	for i := uint64(0); i < st.rngDraws; i++ {
		f.rng.Int63()
	}

	if len(st.ops) > 0 && f.tflash == nil {
		panic("ftl: Restore with in-flight ops requires a TrackedFlash")
	}
	// Queue-phase ops first, in per-channel FIFO order (they mint no engine
	// events; the restored resources are busy, so no Acquire grants
	// synchronously). Then every pending event — op phases and the idle
	// patrol — in captured engine-sequence order, so same-instant firing
	// order on the clone matches the source exactly.
	var queued []onfi.OpState
	pending := make([]onfi.OpState, 0, len(st.ops))
	for _, op := range st.ops {
		if op.Queued() {
			queued = append(queued, op)
		} else {
			pending = append(pending, op)
		}
	}
	sort.Slice(queued, func(i, j int) bool {
		if queued[i].Ch != queued[j].Ch {
			return queued[i].Ch < queued[j].Ch
		}
		return queued[i].QSeq < queued[j].QSeq
	})
	sort.Slice(pending, func(i, j int) bool { return pending[i].EventSeq < pending[j].EventSeq })
	for _, op := range queued {
		rd, ed := f.resumedDones(op)
		f.tflash.ResumeOp(op, rd, ed)
	}
	idleDue := st.idleArmed
	for _, op := range pending {
		if idleDue && st.idleSeq < op.EventSeq {
			f.idleEvent = f.eng.At(st.idleTime, f.idleTickFn)
			idleDue = false
		}
		rd, ed := f.resumedDones(op)
		f.tflash.ResumeOp(op, rd, ed)
	}
	if idleDue {
		f.idleEvent = f.eng.At(st.idleTime, f.idleTickFn)
	}
}

// resumedDones re-derives a captured op's completion callbacks from its tag.
// GC ops get the per-PU singleton callbacks (which read their position from
// pu.job, already restored); scrub probes get a fresh closure over the
// tagged page.
func (f *FTL) resumedDones(st onfi.OpState) (func(int, error), func(error)) {
	switch tag := st.Tag.(type) {
	case gcReadTag:
		return f.gcReadDones[tag.pu], nil
	case gcEraseTag:
		return nil, f.gcEraseDones[tag.pu]
	case scrubTag:
		ppn := tag.ppn
		return func(bits int, _ error) { f.applyReadHealth(ppn, bits) }, nil
	}
	panic("ftl: restored op with an unknown tag")
}
