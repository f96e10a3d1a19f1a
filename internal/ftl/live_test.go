package ftl

import (
	"maps"
	"math/rand"
	"testing"

	"ssdtp/internal/nand"
	"ssdtp/internal/sim"
)

// ftlImage is a drained FTL's state together with its chips', enough to
// build identical clones over fresh fakeFlash arrays.
type ftlImage struct {
	cfg   Config
	now   sim.Time
	st    *State
	chips [][]*nand.ChipState
}

// snapshotFTL captures f and its flash. The engine must have run dry and
// the cache be clean (Flush, then eng.Run), so no collection is in flight:
// the fake flash cannot carry in-flight ops.
func snapshotFTL(eng *sim.Engine, fl *fakeFlash, f *FTL) *ftlImage {
	img := &ftlImage{cfg: f.cfg, now: eng.Now(), st: f.Snapshot()}
	img.chips = make([][]*nand.ChipState, len(fl.arr))
	for c := range fl.arr {
		for _, chip := range fl.arr[c] {
			img.chips[c] = append(img.chips[c], chip.Snapshot())
		}
	}
	return img
}

// restore builds a clone: a fresh engine rebased to the capture time, fresh
// chips restored from the image, and a fresh FTL restored over them.
func (img *ftlImage) restore(t *testing.T) (*sim.Engine, *fakeFlash, *FTL) {
	t.Helper()
	eng := sim.NewEngine()
	eng.Rebase(img.now)
	fl := newFakeFlash(t, eng, img.cfg.Geometry, img.cfg.Channels, img.cfg.ChipsPerChannel)
	for c := range fl.arr {
		for w, chip := range fl.arr[c] {
			chip.Restore(img.chips[c][w])
		}
	}
	f := New(eng, fl, img.cfg)
	f.Restore(img.st)
	return eng, fl, f
}

// staleSectors counts physical sectors whose p2l entry names an LSN that no
// longer maps back to them.
func staleSectors(f *FTL) int64 {
	n := int64(0)
	for psn := int64(0); psn < f.p2l.Len(); psn++ {
		if lsn, ok := f.live(psn); lsn >= 0 && !ok {
			n++
		}
	}
	return n
}

// TestOverwriteCopiesNoOldP2LChunk pins that retiring a sector writes no
// p2l entry: on a clone of a prefilled image, overwriting a mapped LBA
// copies exactly the p2l chunks that writing an unmapped LBA copies — those
// of the pages the write and its drain program — and not the chunk of the
// overwritten sector's old location.
func TestOverwriteCopiesNoOldP2LChunk(t *testing.T) {
	cfg := smallConfig()
	cfg.Cache = CacheNone
	eng, fl, src := newTestFTL(t, cfg)
	if perPU := src.secPerBlk * int64(src.blksPerPU); perPU%mapChunk != 0 {
		t.Fatalf("a PU's %d sectors straddle p2l chunks of %d", perPU, mapChunk)
	}
	half := src.LogicalSectors() / 2
	for lsn := int64(0); lsn < half; lsn += 4 {
		if err := src.Write(lsn, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	src.Flush(nil)
	eng.Run()
	img := snapshotFTL(eng, fl, src)

	// writeOne writes one page at lsn on a fresh clone, drains it, and
	// returns the clone with the PUs the write and its drain programmed.
	writeOne := func(lsn int64) (*FTL, map[int]bool) {
		eng, _, f := img.restore(t)
		seq := f.allocSeq
		if err := f.Write(lsn, 4, nil); err != nil {
			t.Fatal(err)
		}
		f.Flush(nil)
		eng.Run()
		checkInvariants(t, f)
		pus := map[int]bool{}
		for s := seq; s < f.allocSeq; s++ {
			pus[f.puForSeq(s)] = true
		}
		return f, pus
	}
	fresh, freshPUs := writeOne(half)
	if copies := fresh.p2l.Stats().CowCopies; copies > int64(len(freshPUs)) {
		t.Fatalf("unmapped write copied %d p2l chunks over %d programmed PUs", copies, len(freshPUs))
	}

	// Overwrite an LBA whose old page lies on a PU the write does not
	// program: its p2l chunk is shared with the image and must stay so.
	old := int64(-1)
	for lsn := int64(0); lsn < half; lsn += 4 {
		if pu := int(src.blockOfPsn(src.l2p.At(lsn)) / int64(src.blksPerPU)); !freshPUs[pu] {
			old = lsn
			break
		}
	}
	if old < 0 {
		t.Fatal("every prefilled page lies on a PU the write programs")
	}
	oldPsn := src.l2p.At(old)
	over, overPUs := writeOne(old)
	if !maps.Equal(overPUs, freshPUs) {
		t.Fatalf("overwrite programmed PUs %v, unmapped write %v", overPUs, freshPUs)
	}
	if newPsn := over.l2p.At(old); newPsn/mapChunk == oldPsn/mapChunk {
		t.Fatalf("old sector %d and new sector %d share a p2l chunk", oldPsn, newPsn)
	}
	if got, want := over.p2l.Stats().CowCopies, fresh.p2l.Stats().CowCopies; got != want {
		t.Errorf("overwrite of lsn %d (old sector %d) copied %d p2l chunks, unmapped write %d: the old location's chunk was copied",
			old, oldPsn, got, want)
	}
	if lsn, ok := over.live(oldPsn); lsn != old || ok {
		t.Errorf("old sector: live = %d, %v; want stale entry %d", lsn, ok, old)
	}
}

// TestSnapshotMidChurnCollectsStaleEntries restores an image taken in the
// middle of overwrite churn, when its p2l holds stale entries, and churns
// on until garbage collection has erased every block that held one. The
// clone must keep every invariant and track the source step for step.
func TestSnapshotMidChurnCollectsStaleEntries(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 21
	eng, fl, src := newTestFTL(t, cfg)
	total := src.LogicalSectors()
	churn := func(eng *sim.Engine, f *FTL, rng *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			lsn := rng.Int63n(total - 8)
			if rng.Intn(8) == 0 {
				if err := f.Trim(lsn, rng.Intn(8)+1); err != nil {
					t.Fatal(err)
				}
			} else if err := f.Write(lsn, rng.Intn(8)+1, nil); err != nil {
				t.Fatal(err)
			}
			if i%50 == 0 {
				eng.Run()
			}
		}
		f.Flush(nil)
		eng.Run()
	}
	for lsn := int64(0); lsn < total; lsn += 4 {
		if err := src.Write(lsn, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	churn(eng, src, rand.New(rand.NewSource(5)), 1500)
	if src.Counters().GCRuns == 0 {
		t.Fatal("no collection before the snapshot")
	}
	checkInvariants(t, src)

	// Blocks in use (not free) holding stale entries at capture time, with
	// their erase counts. A free block's stale entries wait for its next
	// programs; checkInvariants checks that none of them is live.
	free := map[int64]bool{}
	for i := range src.pus {
		for _, blk := range src.pus[i].free {
			free[src.globalBlock(i, blk)] = true
		}
	}
	staleBlocks := map[int64]int32{}
	for psn := int64(0); psn < src.p2l.Len(); psn++ {
		gb := src.blockOfPsn(psn)
		if lsn, ok := src.live(psn); lsn >= 0 && !ok && !free[gb] {
			staleBlocks[gb] = src.blockErases.At(gb)
		}
	}
	if len(staleBlocks) == 0 {
		t.Fatal("snapshot holds no stale p2l entries in blocks in use")
	}
	img := snapshotFTL(eng, fl, src)
	ceng, _, clone := img.restore(t)
	checkInvariants(t, clone)
	if got, want := staleSectors(clone), staleSectors(src); got != want {
		t.Fatalf("clone has %d stale sectors, source %d", got, want)
	}

	srng, crng := rand.New(rand.NewSource(6)), rand.New(rand.NewSource(6))
	for round := 0; len(staleBlocks) > 0; round++ {
		if round == 20 {
			t.Fatalf("%d blocks with stale entries never collected", len(staleBlocks))
		}
		churn(eng, src, srng, 500)
		churn(ceng, clone, crng, 500)
		checkInvariants(t, clone)
		if clone.Counters() != src.Counters() {
			t.Fatalf("clone counters %+v diverge from source %+v", clone.Counters(), src.Counters())
		}
		for gb, erases := range staleBlocks {
			if clone.blockErases.At(gb) > erases {
				delete(staleBlocks, gb)
			}
		}
	}
	for lsn := int64(0); lsn < total; lsn++ {
		if clone.l2p.At(lsn) != src.l2p.At(lsn) {
			t.Fatalf("l2p[%d]: clone %d, source %d", lsn, clone.l2p.At(lsn), src.l2p.At(lsn))
		}
	}
}
