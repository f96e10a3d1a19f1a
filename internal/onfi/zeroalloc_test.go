package onfi

import (
	"testing"

	"ssdtp/internal/nand"
	"ssdtp/internal/sim"
)

// Every bus operation runs on one pooled descriptor (DESIGN.md §13), so a
// steady-state read, program or erase allocates nothing, whichever variant
// issued it. CI runs these (-run 'ZeroAlloc', no -race) as a regression
// gate.

// zaBus is package-level so the measured closures capture nothing and
// compile to static funcvals (a capturing closure would itself allocate,
// polluting the measurement).
var zaBus struct {
	eng              *sim.Engine
	b                *Bus
	readEnd, progEnd sim.Time
}

var zaTag any = "za"

func zaReadDone(int, error) { zaBus.readEnd = zaBus.eng.Now() }
func zaProgDone(error)      { zaBus.progEnd = zaBus.eng.Now() }
func zaEraseDone(error)     {}

func zaTrackedRead() {
	zaBus.b.ReadTracked(0, nand.Addr{Block: 1}, zaTag, zaReadDone)
	zaBus.eng.Run()
}

func zaTrackedErase() {
	zaBus.b.EraseTracked(0, nand.Addr{Block: 2}, true, zaTag, zaEraseDone)
	zaBus.eng.Run()
}

// zaPriorityRead suspends a background program with a read of another
// block on the same die, then erases the programmed block for the next
// round.
func zaPriorityRead() {
	s := &zaBus
	s.b.ProgramBG(0, nand.Addr{Block: 3}, nil, false, zaProgDone)
	s.eng.RunUntil(s.eng.Now() + s.b.Timing().ProgramPage/2)
	s.b.ReadPri(0, nand.Addr{Block: 1}, nil, zaReadDone)
	s.eng.Run()
	s.b.Erase(0, nand.Addr{Block: 3}, zaEraseDone)
	s.eng.Run()
}

func TestBusZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"tracked-read", zaTrackedRead},
		{"tracked-erase", zaTrackedErase},
		{"priority-read-suspend", zaPriorityRead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			zaBus.eng, zaBus.b = testBus(t, 1)
			zaBus.b.Program(0, nand.Addr{Block: 1}, nil, nil)
			zaBus.eng.Run()
			for i := 0; i < 4; i++ {
				tc.op()
			}
			if avg := testing.AllocsPerRun(200, tc.op); avg != 0 {
				t.Fatalf("steady-state %s allocated %.2f objects/op, want 0", tc.name, avg)
			}
		})
	}
	// The priority read really took the suspend path: it finished while the
	// background program it suspended was still in its array phase.
	zaBus.eng, zaBus.b = testBus(t, 1)
	zaBus.b.Program(0, nand.Addr{Block: 1}, nil, nil)
	zaBus.eng.Run()
	zaPriorityRead()
	if zaBus.readEnd >= zaBus.progEnd {
		t.Fatalf("priority read ended at %d, not before the background program (%d)", zaBus.readEnd, zaBus.progEnd)
	}
}
