package ftl

import (
	"ssdtp/internal/nand"
	"ssdtp/internal/obs"
)

// openBlock is a block currently accepting page programs.
type openBlock struct {
	blk  int32
	next int
	open bool
}

// puState is one parallel unit: a (channel, chip, die, plane) coordinate
// with its own free list, open blocks, and GC state. Striping consecutive
// pages across PUs per the allocation order is what creates (or destroys)
// parallelism for a given workload shape.
type puState struct {
	index                int
	ch, chip, die, plane int

	free     []int32 // free local block indices (LIFO)
	active   openBlock
	gcActive openBlock
	full     []int32 // closed blocks in close order (FIFO GC order)

	gcRunning bool
	job       *gcJob    // in-progress victim collection (nil between victims)
	spareJob  *gcJob    // the last finished job, recycled by the next collectBlock
	waiters   []*pageOp // page ops awaiting a free block
}

// hostReserveBlocks is how many free blocks per PU are withheld from host
// allocations so garbage collection can always make progress.
const hostReserveBlocks = 1

// globalBlock converts a PU-local block index to the global block id used by
// blockValid/blockInflight.
func (f *FTL) globalBlock(pu int, blk int32) int64 {
	return int64(pu)*int64(f.blksPerPU) + int64(blk)
}

// allocPage hands out the next page of the PU's relevant open block, opening
// a fresh block from the free list when needed. Relocated pages get their
// own open block (hot/cold stream separation, the first-order write-
// amplification optimization of the literature the paper cites, [39]-[42]):
// cold data collected together stays together. It returns ok=false when the
// operation must wait for garbage collection to free a block.
func (f *FTL) allocPage(pu *puState, kind pageKind) (blk int32, page int, ok bool) {
	ob := &pu.active
	if kind == kindGC {
		ob = &pu.gcActive
	}
	if !ob.open {
		reserve := hostReserveBlocks
		if kind == kindGC {
			reserve = 0
		}
		if len(pu.free) <= reserve {
			f.maybeStartGC(pu, false)
			return 0, 0, false
		}
		ob.blk = pu.free[len(pu.free)-1]
		pu.free = pu.free[:len(pu.free)-1]
		ob.next = 0
		ob.open = true
		if len(pu.free) < f.cfg.GCLowWater {
			f.maybeStartGC(pu, false)
		}
	}
	blk, page = ob.blk, ob.next
	ob.next++
	if ob.next == f.pagesPerBlk {
		ob.open = false
		pu.full = append(pu.full, ob.blk)
	}
	return blk, page, true
}

// submitPage issues op's page program, or queues it on its PU until a block
// frees up.
func (f *FTL) submitPage(op *pageOp) {
	if op.kind == kindGC || op.kind == kindRefresh {
		f.inflightGC++
	} else {
		f.inflightPages++
	}
	pu := &f.pus[op.pu]
	if !f.tryIssue(pu, op) {
		// Parked for a free block: the host request (if any) is now waiting
		// on collection to reclaim space — GC interference by definition.
		op.req.Mark(obs.PhaseGCStall)
		pu.waiters = append(pu.waiters, op)
	}
}

// tryIssue attempts allocation and, on success, starts the flash program.
func (f *FTL) tryIssue(pu *puState, op *pageOp) bool {
	blk, page, ok := f.allocPage(pu, op.kind)
	if !ok {
		return false
	}
	gb := f.globalBlock(pu.index, blk)
	f.blockInflight[gb]++
	ppn := f.ppnOf(pu.index, blk, page)
	addr := nand.Addr{Die: pu.die, Plane: pu.plane, Block: int(blk), Page: page}
	// With suspension enabled, everything except a foreground (direct)
	// data write is deferrable background work: relocations, refresh, map
	// journaling, parity, and cache writeback — the host has the data
	// buffered; a demand read is always more urgent.
	background := f.cfg.GCSuspend &&
		(op.kind != kindData || op.entries != nil)
	op.blk, op.gb, op.ppn = blk, gb, ppn
	f.prof.SetOp(op.req)
	f.flash.Program(pu.ch, pu.chip, addr, op.slc, background, op.progDone)
	return true
}

// onProgramDone is the shared flash-program completion: op.progDone (built
// once per pooled descriptor) forwards here with the placement tryIssue
// recorded on the op.
func (f *FTL) onProgramDone(op *pageOp, err error) {
	pu := &f.pus[op.pu]
	if err != nil {
		f.programFailed(pu, op, op.blk, op.gb)
		return
	}
	f.commitPage(pu, op, op.ppn, op.gb)
}

// programFailed handles a grown-bad-block event: retire the block, abandon
// it as an open block, and resubmit the operation to fresh flash.
func (f *FTL) programFailed(pu *puState, op *pageOp, blk int32, gb int64) {
	f.blockInflight[gb]--
	if pu.active.open && pu.active.blk == blk {
		pu.active.open = false
	}
	if pu.gcActive.open && pu.gcActive.blk == blk {
		pu.gcActive.open = false
	}
	f.retireBlock(pu, blk)
	// Balance the in-flight accounting before resubmitting.
	if op.kind == kindGC || op.kind == kindRefresh {
		f.inflightGC--
	} else {
		f.inflightPages--
	}
	f.submitPage(op)
}

// commitPage finalizes a completed page program: install mappings, account
// counters, advance the RAIN stripe, and wake anything waiting on this PU or
// on global drain.
//
// Data and relocation commits run in two passes. Pass 1 gathers every live
// slot's current l2p entry; pass 2 commits the slots in order against the
// gathered values. The pass-1 loads are independent of each other and of
// any store, so a page's l2p cache misses overlap instead of each one
// waiting behind the previous slot's commit. The gather equals what a
// one-pass commit would read because:
//   - a page never carries one LSN twice: writeDirect fills a data page from
//     one contiguous range, startCacheFlush from distinct dirty entries (the
//     write cache indexes one entry per LSN), and a relocation page from
//     distinct live sectors, which live maps to distinct LSNs (each live
//     sector is its LSN's l2p entry); and
//   - nothing pass 2 runs rewrites another slot's l2p entry: wakeStarvedPU
//     defers its kick through the engine, and journal, parity and GC
//     programs that a commit submits complete (and commit) later, as every
//     Flash completion does.
func (f *FTL) commitPage(pu *puState, op *pageOp, ppn int64, gb int64) {
	f.blockInflight[gb]--
	base := ppn * int64(f.secPerPage)
	switch op.kind {
	case kindData:
		f.counters.DataPagesProgrammed++
		if op.slc {
			f.counters.PSLCPagesProgrammed++
		}
		cur := f.gatherL2P(op.lsns, op.oldBuf)
		for i, lsn := range op.lsns {
			psn := base + int64(i)
			if lsn < 0 {
				f.p2l.Set(psn, psnFree)
				f.counters.PaddedSectors++
				continue
			}
			if op.entries != nil {
				e := op.entries[i]
				f.commitCachedSector(e, op, lsn, psn, cur[i])
				continue
			}
			f.commitMapping(lsn, psn, cur[i])
			if op.slc && f.pslcIndex != nil {
				f.pslcIndex[lsn] = psn
			}
		}
	case kindGC, kindRefresh:
		if op.kind == kindGC {
			f.counters.GCPagesProgrammed++
		} else {
			f.counters.RefreshPagesProgrammed++
		}
		cur := f.gatherL2P(op.lsns, f.gatherBuf)
		for i, lsn := range op.lsns {
			psn := base + int64(i)
			if lsn < 0 {
				f.p2l.Set(psn, psnFree)
				f.counters.PaddedSectors++
				continue
			}
			if cur[i] == op.old[i] {
				// Still current: move the mapping. The old sector's p2l
				// entry goes stale once l2p points here (see live).
				*f.blockValid.Ptr(f.blockOfPsn(op.old[i]))--
				f.l2p.Set(lsn, psn)
				f.p2l.Set(psn, lsn)
				*f.blockValid.Ptr(f.blockOfPsn(psn))++
				f.counters.GCValidMoved++
				f.noteMapUpdate()
			} else {
				// Overwritten while relocating: the new copy is dead on
				// arrival.
				f.p2l.Set(psn, psnFree)
			}
		}
	case kindMap:
		f.counters.MapPagesProgrammed++
		for i := range op.lsns {
			f.p2l.Set(base+int64(i), psnMapMeta)
		}
	case kindParity:
		f.counters.ParityPagesProgrammed++
		for i := range op.lsns {
			f.p2l.Set(base+int64(i), psnParity)
		}
	}
	if op.kind != kindParity && f.cfg.RAIN.Enabled() {
		f.stripeProgress++
		if f.stripeProgress >= f.cfg.RAIN.DataPages {
			f.writeParity()
		}
	}
	if op.done != nil {
		op.done()
	}
	if op.kind == kindGC || op.kind == kindRefresh {
		f.inflightGC--
	} else {
		f.inflightPages--
	}
	// A commit may have re-armed GC eligibility (inflight hit zero) or
	// unblocked nothing; cheap checks keep the machine live.
	if !pu.gcRunning && len(pu.free) < f.cfg.GCLowWater {
		f.maybeStartGC(pu, false)
	}
	f.drainPUWaiters(pu)
	f.pumpDrain()
	// The op is fully retired: every slot committed, done ran, and nothing
	// queued can reference it (waiters hold distinct ops; entries that were
	// superseded compare flight against their newer program). Recycle it.
	f.releaseOp(op)
}

// gatherL2P loads the l2p entry of every live slot of lsns into buf (pass 1
// of commitPage) and returns buf. Padding slots are left as they were.
func (f *FTL) gatherL2P(lsns, buf []int64) []int64 {
	for i, lsn := range lsns {
		if lsn >= 0 {
			buf[i] = f.l2p.At(lsn)
		}
	}
	return buf
}

// drainPUWaiters issues as many queued page ops as current free space allows.
func (f *FTL) drainPUWaiters(pu *puState) {
	for len(pu.waiters) > 0 {
		if !f.tryIssue(pu, pu.waiters[0]) {
			return
		}
		copy(pu.waiters, pu.waiters[1:])
		pu.waiters = pu.waiters[:len(pu.waiters)-1]
	}
}

// writeParity closes the current RAIN stripe with one parity page on the
// next PU in allocation order.
func (f *FTL) writeParity() {
	f.stripeProgress = 0
	op := f.newPageOp(kindParity, f.nextPU())
	for i := range op.lsnsBuf {
		op.lsnsBuf[i] = -1
	}
	op.lsns = op.lsnsBuf
	f.submitPage(op)
}

// noteMapUpdate records one logical-to-physical update for journaling and
// emits full journal pages as the threshold fills.
func (f *FTL) noteMapUpdate() {
	f.mapUpdates++
	if f.mapUpdates >= f.journalThreshold {
		pages := f.mapUpdates / f.entriesPerMapPage
		if pages == 0 {
			pages = 1
		}
		f.mapUpdates -= pages * f.entriesPerMapPage
		if f.mapUpdates < 0 {
			f.mapUpdates = 0
		}
		for p := int64(0); p < pages; p++ {
			f.writeJournalPage()
		}
	}
}

// journalResidual flushes a final partial journal page during drain.
func (f *FTL) journalResidual() {
	f.mapUpdates = 0
	f.writeJournalPage()
}

// writeJournalPage emits one mapping-journal page program.
func (f *FTL) writeJournalPage() {
	if f.tr.Enabled() {
		f.tr.Emit("ftl.map.journal", obs.Int("pending_updates", f.mapUpdates))
	}
	op := f.newPageOp(kindMap, f.nextPU())
	for i := range op.lsnsBuf {
		op.lsnsBuf[i] = -1
	}
	op.lsns = op.lsnsBuf
	f.submitPage(op)
}
