package fleet

import (
	"math/rand"
	"testing"
)

// zaFleet is package-level so the measured functions capture nothing.
var zaFleet struct {
	f       *Fleet
	v       *Volume
	rng     *rand.Rand
	pending int
}

func zaFleetDone()      { zaFleet.pending-- }
func zaFleetBusy() bool { return zaFleet.pending > 0 }

// zaFleetIO submits one 64 KiB tenant write or read at a random 4 KiB-aligned
// offset (some straddle an extent boundary and fan out to two drives) and
// runs the host engine until it completes.
func zaFleetIO(write bool) {
	s := &zaFleet
	const n = 64 << 10
	off := s.rng.Int63n((s.v.Size()-n)/4096+1) * 4096
	s.pending++
	var err error
	if write {
		err = s.v.WriteAsync(off, nil, n, zaFleetDone)
	} else {
		err = s.v.ReadAsync(off, nil, n, zaFleetDone)
	}
	if err != nil {
		panic(err)
	}
	if s.f.Engine().RunWhile(zaFleetBusy) {
		panic("fleet ran out of events with a request outstanding")
	}
}

// zaFleetBatchLen is how many requests one measured run makes; counting a
// whole batch as one AllocsPerRun run reports allocations that only some
// requests make.
const zaFleetBatchLen = 2000

func zaFleetBatch() {
	for i := 0; i < zaFleetBatchLen; i++ {
		zaFleetIO(i%2 == 0)
	}
}

// TestVolumeSubmitZeroAlloc pins the fleet's request path: with request and
// piece descriptors recycled and every drive on a one-record tracer, a
// steady-state tenant write or read allocates nothing in the fleet or on its
// drives. Warm-up writes the volume sequentially twice, so every drive's
// mapping chunks are materialized, then mixes random requests until the
// descriptor pools and drive freelists reach their steady sizes. The
// volume's row cap is then set to the rows warm-up retained: later requests
// run the whole completion path but drop their row, so the count leaves out
// the growth of the tenant's retained latency rows, which are output.
func TestVolumeSubmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	v := zaFleetWarm(t)
	sub := v.subRequests
	if n := testing.AllocsPerRun(1, zaFleetBatch); n != 0 {
		t.Fatalf("%.0f allocations in %d steady-state volume requests, want 0", n, zaFleetBatchLen)
	}
	if pieces := v.subRequests - sub; pieces <= 2*zaFleetBatchLen {
		t.Fatalf("%d pieces for %d requests: no request straddled an extent", pieces, 2*zaFleetBatchLen)
	}
}

// zaFleetWarm builds the measured fleet and volume and warms them.
func zaFleetWarm(t *testing.T) *Volume {
	f := testFleet(t, 4, 256<<10)
	v, err := f.AddVolume("a", []int{0, 1, 2, 3}, 4*f.drives[0].dev.Size()*3/4)
	if err != nil {
		t.Fatal(err)
	}
	zaFleet.f, zaFleet.v, zaFleet.pending = f, v, 0
	zaFleet.rng = rand.New(rand.NewSource(1))
	for pass := 0; pass < 3; pass++ {
		for off := int64(0); off < v.Size(); off += 64 << 10 {
			zaFleet.pending++
			if err := v.WriteAsync(off, nil, 64<<10, zaFleetDone); err != nil {
				t.Fatal(err)
			}
			if f.Engine().RunWhile(zaFleetBusy) {
				t.Fatal("fleet ran out of events with a request outstanding")
			}
		}
	}
	for i := 0; i < 5; i++ {
		zaFleetBatch()
	}
	v.rowCap = v.rows.Len()
	return v
}

// zaFlushBatchLen is how many write+flush pairs one measured run makes.
const zaFlushBatchLen = 500

// zaFleetFlushBatch makes zaFlushBatchLen tenant writes, each followed by a
// flush of every drive backing the volume, run to its completion. With
// direct set, each drive is flushed straight through its device, bypassing
// the volume's fan-out; otherwise the volume's FlushAsync issues them.
func zaFleetFlushBatch(direct bool) {
	s := &zaFleet
	for i := 0; i < zaFlushBatchLen; i++ {
		zaFleetIO(true)
		if direct {
			for _, di := range s.v.shared {
				d := s.f.drives[di]
				s.f.syncDrive(d)
				s.pending++
				if err := d.dev.FlushAsync(zaFleetDone); err != nil {
					panic(err)
				}
				s.f.group.Touch(d.idx)
			}
			s.f.armPump()
		} else {
			s.pending++
			if err := s.v.FlushAsync(zaFleetDone); err != nil {
				panic(err)
			}
		}
		if s.f.Engine().RunWhile(zaFleetBusy) {
			panic("fleet ran out of events with a flush outstanding")
		}
	}
}

// TestVolumeFlushZeroAlloc pins a steady-state volume flush at zero
// allocations, both flushing the drives directly and through the volume's
// fan-out: the fleet's per-drive pieces come from its pooled request and
// piece descriptors, and each drive's FTL reuses its two drain-waiter lists.
func TestVolumeFlushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	zaFleetWarm(t)
	zaFleetFlushBatch(true)
	zaFleetFlushBatch(false)
	if n := testing.AllocsPerRun(1, func() { zaFleetFlushBatch(true) }); n != 0 {
		t.Fatalf("%.0f allocations in %d steady-state write+drive flush pairs, want 0", n, zaFlushBatchLen)
	}
	if n := testing.AllocsPerRun(1, func() { zaFleetFlushBatch(false) }); n != 0 {
		t.Fatalf("%.0f allocations in %d steady-state write+volume flush pairs, want 0", n, zaFlushBatchLen)
	}
}
