package ftl

import (
	"ssdtp/internal/nand"
	"ssdtp/internal/obs"
)

// maybeStartGC kicks off a collection loop on pu when free space is below
// the low-water mark (or unconditionally for background collection when
// force is set and the PU is below high water).
func (f *FTL) maybeStartGC(pu *puState, force bool) {
	if pu.gcRunning {
		return
	}
	if !force && len(pu.free) >= f.cfg.GCLowWater {
		return
	}
	f.setGCRunning(pu, true)
	f.gcStep(pu)
}

// gcStep collects one victim block, then re-evaluates. The loop ends when
// the PU reaches high water or no collectable block exists (all candidates
// busy or none closed yet — commits re-arm collection).
func (f *FTL) gcStep(pu *puState) {
	if len(pu.free) >= f.cfg.GCHighWater {
		f.setGCRunning(pu, false)
		return
	}
	idx := f.pickVictim(pu)
	if idx < 0 {
		f.setGCRunning(pu, false)
		return
	}
	victim := pu.full[idx]
	pu.full = append(pu.full[:idx], pu.full[idx+1:]...)
	f.counters.GCRuns++
	f.collectBlock(pu, victim)
}

// pickVictim chooses a victim among the PU's closed blocks per the
// configured policy, skipping blocks with in-flight programs. It returns an
// index into pu.full, or -1.
func (f *FTL) pickVictim(pu *puState) int {
	candidates := pu.full
	if len(candidates) == 0 {
		return -1
	}
	// A victim must reclaim at least one full page of space: relocating
	// its valid sectors repacked must consume strictly fewer pages than
	// the erase frees, or collection makes zero net progress and would
	// spin forever when over-provisioning is thinly spread.
	maxValid := int32((f.pagesPerBlk - 1) * f.secPerPage)
	eligible := func(i int) bool {
		gb := f.globalBlock(pu.index, candidates[i])
		return f.blockInflight[gb] == 0 && f.blockValid.At(gb) <= maxValid && !f.blockBad(gb)
	}
	valid := func(i int) int32 {
		return f.blockValid.At(f.globalBlock(pu.index, candidates[i]))
	}
	switch f.cfg.GC {
	case GCFIFO:
		for i := range candidates {
			if eligible(i) {
				return i
			}
		}
		return -1
	case GCRandGreedy:
		best, bestValid := -1, int32(0)
		for s := 0; s < f.cfg.GCSample; s++ {
			i := f.rng.Intn(len(candidates))
			if !eligible(i) {
				continue
			}
			if v := valid(i); best < 0 || v < bestValid {
				best, bestValid = i, v
			}
		}
		if best >= 0 {
			return best
		}
		// The sample can miss every eligible block; fall back to a linear
		// scan for any eligible victim. Stopping here with allocation
		// waiters queued would deadlock the parallel unit.
		for i := range candidates {
			if eligible(i) {
				return i
			}
		}
		return -1
	default: // GCGreedy
		best, bestValid := -1, int32(0)
		for i := range candidates {
			if !eligible(i) {
				continue
			}
			if v := valid(i); best < 0 || v < bestValid {
				best, bestValid = i, v
			}
		}
		return best
	}
}

// gcMove is one live sector awaiting relocation.
type gcMove struct{ lsn, psn int64 }

// Collection phases of a gcJob.
const (
	jobReading uint8 = iota // relocation reads chaining through readPages
	jobWriting              // relocation programs chaining through output pages
	jobErasing              // victim erase in flight
)

// gcJob is the reified state of one victim collection — what used to live in
// the collectBlock closure chain. Reification is what makes trailing GC
// snapshot-visible: a drive image captured with a collection mid-read or
// mid-erase records the job (plus its one in-flight tracked flash op) and
// resumes it exactly. At most one job runs per PU (pu.job).
type gcJob struct {
	victim    int32
	moves     []gcMove
	readPages []int // victim pages holding any live sector
	nPages    int   // relocation output pages
	phase     uint8
	// next is the current readPages index (jobReading) or output page
	// (jobWriting). It advances in the op's completion callback, so at
	// snapshot time it names the in-flight element.
	next int
	sp   obs.Span
}

// collectBlock relocates the victim's live sectors and erases it. Reads,
// relocation programs and the erase all contend with host traffic on the
// PU's channel and die — this contention is the tail-latency mechanism of
// the paper's Figure 3.
func (f *FTL) collectBlock(pu *puState, victim int32) {
	job := pu.spareJob
	if job == nil {
		job = new(gcJob)
	}
	pu.spareJob = nil
	*job = gcJob{victim: victim, moves: job.moves[:0], readPages: job.readPages[:0]}
	// The scan stops at the victim's live count: blockValid moves with every
	// l2p update, so once it has found that many live sectors the rest of
	// the block is stale, and a fully invalid victim is not scanned at all.
	blockBase := f.ppnOf(pu.index, victim, 0) * int64(f.secPerPage)
	want := int(f.blockValid.At(f.globalBlock(pu.index, victim)))
	for p := 0; p < f.pagesPerBlk && len(job.moves) < want; p++ {
		pageLive := false
		for s := 0; s < f.secPerPage; s++ {
			psn := blockBase + int64(p*f.secPerPage+s)
			if lsn, ok := f.live(psn); ok {
				job.moves = append(job.moves, gcMove{lsn: lsn, psn: psn})
				pageLive = true
			}
		}
		if pageLive {
			job.readPages = append(job.readPages, p)
		}
	}
	job.nPages = (len(job.moves) + f.secPerPage - 1) / f.secPerPage

	// One span covers the whole victim: relocation reads, relocation
	// programs, and the erase. Its duration is exactly the background burst
	// Figure 3's tail requests collide with.
	if f.tr.Enabled() {
		job.sp = f.tr.Begin("ftl.gc",
			obs.Int("pu", int64(pu.index)),
			obs.Int("block", int64(victim)),
			obs.Int("live", int64(len(job.moves))))
	}

	pu.job = job
	if len(job.readPages) == 0 {
		job.phase = jobWriting
		f.gcWriteNext(pu)
		return
	}
	job.phase = jobReading
	f.gcReadNext(pu)
}

// gcReadNext issues the relocation read at job.next, or moves on to the
// write phase when the reads are done. Reads chain strictly one at a time —
// job.next advances in the completion callback (gcReadDones) — so host
// operations interleave on the die between them.
func (f *FTL) gcReadNext(pu *puState) {
	job := pu.job
	if job.next == len(job.readPages) {
		job.phase = jobWriting
		job.next = 0
		f.gcWriteNext(pu)
		return
	}
	addr := nand.Addr{Die: pu.die, Plane: pu.plane, Block: int(job.victim), Page: job.readPages[job.next]}
	f.counters.GCPageReads++
	if f.tflash != nil {
		f.tflash.ReadTracked(pu.ch, pu.chip, addr, f.gcReadTags[pu.index], f.gcReadDones[pu.index])
	} else {
		f.flash.Read(pu.ch, pu.chip, addr, false, f.gcReadDones[pu.index])
	}
}

// gcWriteNext submits the relocation program for output page job.next, or
// erases the victim once all pages are out. Relocation output pages issue
// strictly one at a time so host operations interleave on the die between
// them — the preemptible-GC discipline (Lee et al., cited in §1) every
// modern FTL approximates. A non-preemptible burst of a block's worth of
// programs would stall foreground I/O for hundreds of milliseconds.
func (f *FTL) gcWriteNext(pu *puState) {
	job := pu.job
	if job.next == job.nPages {
		f.gcEraseVictim(pu)
		return
	}
	op := f.newPageOp(kindGC, pu.index)
	lsns, old := op.lsnsBuf, op.oldBuf
	for i := range lsns {
		mi := job.next*f.secPerPage + i
		if mi < len(job.moves) {
			lsns[i] = job.moves[mi].lsn
			old[i] = job.moves[mi].psn
		} else {
			lsns[i] = -1
		}
	}
	op.lsns, op.old = lsns, old
	op.done = f.gcWriteDones[pu.index]
	f.submitPage(op)
}

// gcEraseVictim issues the victim erase.
func (f *FTL) gcEraseVictim(pu *puState) {
	job := pu.job
	job.phase = jobErasing
	addr := nand.Addr{Die: pu.die, Plane: pu.plane, Block: int(job.victim)}
	if f.tflash != nil {
		f.tflash.EraseTracked(pu.ch, pu.chip, addr, f.cfg.GCSuspend, f.gcEraseTags[pu.index], f.gcEraseDones[pu.index])
	} else {
		f.flash.Erase(pu.ch, pu.chip, addr, f.cfg.GCSuspend, f.gcEraseDones[pu.index])
	}
}

// gcEraseDone retires or frees the erased victim and re-evaluates the
// collection loop.
func (f *FTL) gcEraseDone(pu *puState, err error) {
	job := pu.job
	pu.job = nil
	if err != nil {
		// Worn out: retire instead of freeing (its live data was already
		// relocated above).
		job.sp.End(obs.Str("result", "retired"))
		f.retireBlock(pu, job.victim)
	} else {
		job.sp.End(obs.Str("result", "erased"))
		f.counters.Erases++
		*f.blockErases.Ptr(f.globalBlock(pu.index, job.victim))++
		pu.free = append(pu.free, job.victim)
	}
	job.sp = obs.Span{}
	pu.spareJob = job
	f.drainPUWaiters(pu)
	f.gcStep(pu)
	f.pumpDrain()
}
