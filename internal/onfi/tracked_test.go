package onfi

import (
	"reflect"
	"sort"
	"testing"

	"ssdtp/internal/nand"
	"ssdtp/internal/sim"
)

type opRec struct {
	label string
	t     sim.Time
	bits  int
	ok    bool
}

// The tracked state machines must be bit-identical mirrors of the closure
// chains in Read/ReadEx and Erase/EraseBG: same completion times, same
// stats, same utilization, same observer event stream, under contention.
func TestTrackedMirrorsUntracked(t *testing.T) {
	run := func(tracked bool) ([]opRec, []BusEvent, BusStats, sim.Time) {
		eng, b := testBus(t, 2)
		var recs []opRec
		var evs []BusEvent
		b.Observe(ObserverFunc(func(ev BusEvent) { evs = append(evs, ev) }))
		rdone := func(label string) func(int, error) {
			return func(bits int, err error) {
				recs = append(recs, opRec{label, eng.Now(), bits, err == nil})
			}
		}
		edone := func(label string) func(error) {
			return func(err error) {
				recs = append(recs, opRec{label, eng.Now(), 0, err == nil})
			}
		}
		read := func(chip int, a nand.Addr, label string) {
			if tracked {
				b.ReadTracked(chip, a, label, rdone(label))
			} else {
				b.ReadEx(chip, a, nil, rdone(label))
			}
		}
		erase := func(chip int, a nand.Addr, bg bool, label string) {
			switch {
			case tracked:
				b.EraseTracked(chip, a, bg, label, edone(label))
			case bg:
				b.EraseBG(chip, a, edone(label))
			default:
				b.Erase(chip, a, edone(label))
			}
		}
		// Seed programmed pages, identically in both runs.
		b.Program(0, nand.Addr{Block: 1}, nil, nil)
		b.Program(1, nand.Addr{Die: 1, Block: 2}, nil, nil)
		eng.Run()
		// Contended mixture across dies and chips, with an untracked program
		// fighting for the wires in both runs.
		read(0, nand.Addr{Block: 1}, "r0")
		erase(0, nand.Addr{Block: 1}, true, "e0") // queues behind r0 on the die
		read(0, nand.Addr{Die: 1}, "r1")
		erase(1, nand.Addr{Die: 1, Block: 2}, false, "e1")
		b.Program(0, nand.Addr{Die: 1, Block: 3}, nil, nil)
		eng.Schedule(60*sim.Microsecond, func() {
			read(1, nand.Addr{Die: 1, Block: 2}, "r2")
		})
		eng.Run()
		if len(b.ops) != 0 {
			t.Fatal("tracked ops leaked in registry")
		}
		return recs, evs, b.Stats(), b.Utilization()
	}
	uRecs, uEvs, uStats, uUtil := run(false)
	tRecs, tEvs, tStats, tUtil := run(true)
	if !reflect.DeepEqual(uRecs, tRecs) {
		t.Errorf("completions diverge:\nuntracked: %v\ntracked:   %v", uRecs, tRecs)
	}
	if !reflect.DeepEqual(uEvs, tEvs) {
		t.Errorf("bus event streams diverge (%d vs %d events)", len(uEvs), len(tEvs))
	}
	if uStats != tStats {
		t.Errorf("stats diverge: %+v vs %+v", uStats, tStats)
	}
	if uUtil != tUtil {
		t.Errorf("utilization diverges: %d vs %d", uUtil, tUtil)
	}
}

// resumeAll reinstates captured ops in the order the restore protocol
// requires: queue-phase ops in QSeq order first (they mint no events), then
// event-phase ops in engine-sequence order.
func resumeAll(b *Bus, states []OpState, rdone func(string) func(int, error), edone func(string) func(error)) {
	var queued, pending []OpState
	for _, st := range states {
		if st.Queued() {
			queued = append(queued, st)
		} else {
			pending = append(pending, st)
		}
	}
	sort.Slice(queued, func(i, j int) bool { return queued[i].QSeq < queued[j].QSeq })
	sort.Slice(pending, func(i, j int) bool { return pending[i].EventSeq < pending[j].EventSeq })
	for _, st := range append(queued, pending...) {
		label := st.Tag.(string)
		b.ResumeOp(st, rdone(label), edone(label))
	}
}

// Snapshot mid-flight after every possible event boundary and resume on a
// fresh bus: the clone must complete the remaining ops at the same times
// with the same stats as the original.
func TestTrackedSnapshotResumeSweep(t *testing.T) {
	issue := func(eng *sim.Engine, b *Bus, recs *[]opRec) {
		rdone := func(label string) func(int, error) {
			return func(bits int, err error) {
				*recs = append(*recs, opRec{label, eng.Now(), bits, err == nil})
			}
		}
		edone := func(label string) func(error) {
			return func(err error) {
				*recs = append(*recs, opRec{label, eng.Now(), 0, err == nil})
			}
		}
		// Seed programmed pages first so reads and the reliability-free
		// bit-error path see non-trivial chip state.
		b.Program(0, nand.Addr{Block: 1}, nil, nil)
		b.Program(1, nand.Addr{Die: 1, Block: 2}, nil, nil)
		eng.Run()
		b.ReadTracked(0, nand.Addr{Block: 1}, "r0", rdone("r0"))
		b.ReadTracked(0, nand.Addr{Block: 1, Page: 0, Plane: 1}, "r1", rdone("r1"))
		b.EraseTracked(1, nand.Addr{Die: 1, Block: 2}, true, "e0", edone("e0"))
		b.ReadTracked(0, nand.Addr{Die: 1}, "r2", rdone("r2"))
		b.EraseTracked(0, nand.Addr{Block: 1}, false, "e1", edone("e1"))
	}

	// Reference run: full completion order and step count.
	refEng, refBus := testBus(t, 2)
	var refRecs []opRec
	issue(refEng, refBus, &refRecs)
	steps := 0
	for refEng.Step() {
		steps++
	}

	for k := 0; k <= steps; k++ {
		// Original, paused after k events.
		eng, b := testBus(t, 2)
		var preRecs []opRec
		issue(eng, b, &preRecs)
		for i := 0; i < k; i++ {
			eng.Step()
		}

		// Capture everything, then clone onto a fresh engine/bus.
		busSnap := b.Snapshot()
		opSnaps := b.SnapshotOps()
		chipSnaps := make([]*nand.ChipState, len(b.chips))
		for i, c := range b.chips {
			chipSnaps[i] = c.Snapshot()
		}

		ceng, cb := testBus(t, 2)
		ceng.Rebase(eng.Now())
		for i, c := range cb.chips {
			c.Restore(chipSnaps[i])
		}
		cb.Restore(busSnap)
		cloneRecs := append([]opRec(nil), preRecs...)
		resumeAll(cb, opSnaps,
			func(label string) func(int, error) {
				return func(bits int, err error) {
					cloneRecs = append(cloneRecs, opRec{label, ceng.Now(), bits, err == nil})
				}
			},
			func(label string) func(error) {
				return func(err error) {
					cloneRecs = append(cloneRecs, opRec{label, ceng.Now(), 0, err == nil})
				}
			})
		ceng.Run()

		if !reflect.DeepEqual(cloneRecs, refRecs) {
			t.Fatalf("k=%d: completions diverge:\nref:   %v\nclone: %v", k, cloneRecs, refRecs)
		}
		if cb.Stats() != refBus.Stats() {
			t.Fatalf("k=%d: stats diverge: %+v vs %+v", k, cb.Stats(), refBus.Stats())
		}
		if cb.Utilization() != refBus.Utilization() {
			t.Fatalf("k=%d: utilization diverges", k)
		}
		for i, c := range cb.chips {
			if c.Stats() != refBus.chips[i].Stats() {
				t.Fatalf("k=%d: chip %d stats diverge", k, i)
			}
		}
		if ceng.Now() != refEng.Now() {
			t.Fatalf("k=%d: final clocks diverge: %d vs %d", k, ceng.Now(), refEng.Now())
		}
	}
}
