package ftl

import (
	"ssdtp/internal/nand"
	"ssdtp/internal/obs"
)

// Scrubbing and bad-block management: the FTL-side consumers of the NAND
// reliability model. Page refresh ("flash correct-and-refresh") relocates
// pages whose raw bit-error count approaches the ECC limit; grown bad
// blocks retire after program or erase failures. Both are classic
// "unpredictable background operations" (§2.1) — traffic a black-box
// observer cannot attribute, and one of the reasons the paper distrusts
// external modeling.

// applyReadHealth reacts to the bit-error count of a completed page read.
func (f *FTL) applyReadHealth(ppn int64, bits int) {
	if bits == 0 {
		return
	}
	if f.cfg.ECCBits > 0 && bits > f.cfg.ECCBits {
		f.counters.UncorrectableReads++
		if f.tr.Enabled() {
			f.tr.Emit("ftl.read.uncorrectable",
				obs.Int("ppn", ppn), obs.Int("bits", int64(bits)))
		}
		return
	}
	if f.cfg.RefreshBits > 0 && bits >= f.cfg.RefreshBits {
		f.refreshPage(ppn)
	}
}

// refreshPage relocates the live sectors of one physical page (the
// correct-and-refresh operation). Idempotent per in-flight page.
func (f *FTL) refreshPage(ppn int64) {
	if f.refreshing.Get(ppn) {
		return
	}
	base := ppn * int64(f.secPerPage)
	op := f.newPageOp(kindRefresh, 0)
	lsns, old := op.lsnsBuf, op.oldBuf
	live := 0
	for i := 0; i < f.secPerPage; i++ {
		psn := base + int64(i)
		if lsn, ok := f.live(psn); ok {
			lsns[i] = lsn
			old[i] = psn
			live++
		} else {
			lsns[i] = -1
		}
	}
	if live == 0 {
		f.releaseOp(op)
		return // nothing live; GC will reclaim the block eventually
	}
	f.refreshing.Set(ppn)
	if f.tr.Enabled() {
		f.tr.Emit("ftl.refresh", obs.Int("ppn", ppn), obs.Int("live", int64(live)))
	}
	op.lsns, op.old, op.pu = lsns, old, f.nextPU()
	op.done = func() {
		f.refreshing.Clear(ppn)
	}
	f.submitPage(op)
}

// scrubTick samples programmed pages during idle time, reading them so the
// refresh logic sees their error counts — the background patrol read real
// firmware runs.
func (f *FTL) scrubTick() {
	if f.cfg.RefreshBits <= 0 {
		return
	}
	// Patrol only blocks that hold live data; sampling the raw block space
	// would waste most probes on empty flash.
	var candidates []int64
	totalBlocks := int64(f.numPU) * int64(f.blksPerPU)
	for gb := int64(0); gb < totalBlocks; gb++ {
		if f.blockValid.At(gb) > 0 && !f.blockBad(gb) {
			candidates = append(candidates, gb)
		}
	}
	if len(candidates) == 0 {
		return
	}
	const samples = 16
	if f.tr.Enabled() {
		f.tr.Emit("ftl.scrub.tick", obs.Int("candidates", int64(len(candidates))))
	}
	for s := 0; s < samples; s++ {
		gb := candidates[f.rng.Intn(len(candidates))]
		page := f.rng.Intn(f.pagesPerBlk)
		pu := int(gb / int64(f.blksPerPU))
		blk := int32(gb % int64(f.blksPerPU))
		ppn := f.ppnOf(pu, blk, page)
		base := ppn * int64(f.secPerPage)
		livePage := false
		for i := 0; i < f.secPerPage; i++ {
			if _, ok := f.live(base + int64(i)); ok {
				livePage = true
				break
			}
		}
		if !livePage {
			continue
		}
		p := &f.pus[pu]
		addr := nand.Addr{Die: p.die, Plane: p.plane, Block: int(blk), Page: page}
		f.counters.ScrubReads++
		done := func(bits int, _ error) {
			f.applyReadHealth(ppn, bits)
		}
		if f.tflash != nil {
			f.tflash.ReadTracked(p.ch, p.chip, addr, scrubTag{ppn: ppn}, done)
		} else {
			f.flash.Read(p.ch, p.chip, addr, false, done)
		}
	}
}

// blockBad reports whether the block has been retired.
func (f *FTL) blockBad(gb int64) bool {
	return f.badBlocks.Get(gb)
}

// retireBlock marks a block grown-bad after a program or erase failure: its
// remaining live sectors relocate, and the block never returns to the free
// pool.
func (f *FTL) retireBlock(pu *puState, blk int32) {
	gb := f.globalBlock(pu.index, blk)
	if f.badBlocks.Get(gb) {
		return
	}
	f.badBlocks.Set(gb)
	f.counters.GrownBadBlocks++
	if f.tr.Enabled() {
		f.tr.Emit("ftl.block.retire",
			obs.Int("pu", int64(pu.index)), obs.Int("block", int64(blk)))
	}
	// Remove from the full list if present (it must never be a GC victim:
	// its erase would fail).
	for i, b := range pu.full {
		if b == blk {
			pu.full = append(pu.full[:i], pu.full[i+1:]...)
			break
		}
	}
	// Relocate surviving live sectors.
	base := f.ppnOf(pu.index, blk, 0) * int64(f.secPerPage)
	for off := int64(0); off < f.secPerBlk; off += int64(f.secPerPage) {
		ppn := (base + off) / int64(f.secPerPage)
		for i := int64(0); i < int64(f.secPerPage); i++ {
			if _, ok := f.live(base + off + i); ok {
				f.refreshPage(ppn)
				break
			}
		}
	}
}

// maybeWearLevel runs static wear leveling on one parallel unit: when the
// erase spread exceeds the configured threshold, the coldest closed block's
// data relocates so the block rejoins the hot rotation. FIFO-style even
// wear without FIFO's write amplification.
func (f *FTL) maybeWearLevel(pu *puState) {
	if f.cfg.WearLevelThreshold <= 0 || pu.gcRunning || len(pu.full) == 0 {
		return
	}
	var minE, maxE int32
	first := true
	for b := 0; b < f.blksPerPU; b++ {
		gb := f.globalBlock(pu.index, int32(b))
		if f.blockBad(gb) {
			continue
		}
		e := f.blockErases.At(gb)
		if first {
			minE, maxE = e, e
			first = false
			continue
		}
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
	}
	if int(maxE-minE) <= f.cfg.WearLevelThreshold {
		return
	}
	// Victimize the coldest closed block.
	best, bestE := -1, int32(0)
	for i, blk := range pu.full {
		gb := f.globalBlock(pu.index, blk)
		if f.blockInflight[gb] != 0 || f.blockBad(gb) {
			continue
		}
		if e := f.blockErases.At(gb); best < 0 || e < bestE {
			best, bestE = i, e
		}
	}
	if best < 0 || bestE > minE {
		return
	}
	victim := pu.full[best]
	pu.full = append(pu.full[:best], pu.full[best+1:]...)
	f.counters.WearLevelRelocations++
	f.setGCRunning(pu, true)
	f.collectBlock(pu, victim)
}
