package onfi

import (
	"bytes"
	"reflect"
	"testing"

	"ssdtp/internal/nand"
	"ssdtp/internal/sim"
)

func testBus(t *testing.T, chips int) (*sim.Engine, *Bus) {
	t.Helper()
	eng := sim.NewEngine()
	g := nand.Geometry{Dies: 2, Planes: 2, BlocksPerPlane: 8, PagesPerBlock: 16, PageSize: 2048, OOBSize: 64}
	cs := make([]*nand.Chip, chips)
	for i := range cs {
		cs[i] = nand.NewChip(nand.ChipConfig{Geometry: g, StoreData: true})
	}
	return eng, NewBus(eng, 0, nand.ONFI2MLC(), cs...)
}

func TestProgramThenRead(t *testing.T) {
	eng, b := testBus(t, 1)
	a := nand.Addr{Die: 0, Plane: 1, Block: 3, Page: 0}
	data := bytes.Repeat([]byte{0x5A}, 2048)
	var programmed bool
	b.Program(0, a, data, func(err error) {
		if err != nil {
			t.Errorf("program: %v", err)
		}
		programmed = true
		buf := make([]byte, 2048)
		b.ReadEx(0, a, buf, func(_ int, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			if !bytes.Equal(buf, data) {
				t.Error("read data mismatch")
			}
		})
	})
	eng.Run()
	if !programmed {
		t.Fatal("program callback never fired")
	}
}

func TestProgramLatency(t *testing.T) {
	eng, b := testBus(t, 1)
	tm := b.Timing()
	var end sim.Time
	b.Program(0, nand.Addr{}, nil, func(error) { end = eng.Now() })
	eng.Run()
	want := 2*tm.CmdCycle + 5*tm.AddrCycle + tm.TransferTime(2048) + tm.ProgramPage
	if end != want {
		t.Errorf("program completed at %d, want %d", end, want)
	}
}

func TestEraseLatency(t *testing.T) {
	eng, b := testBus(t, 1)
	tm := b.Timing()
	var end sim.Time
	b.Erase(0, nand.Addr{Block: 2}, func(error) { end = eng.Now() })
	eng.Run()
	want := 2*tm.CmdCycle + 3*tm.AddrCycle + tm.EraseBlock
	if end != want {
		t.Errorf("erase completed at %d, want %d", end, want)
	}
}

// Two programs to different dies overlap their array time; two to the same
// die serialize.
func TestDieParallelism(t *testing.T) {
	eng, b := testBus(t, 1)
	var ends []sim.Time
	b.Program(0, nand.Addr{Die: 0}, nil, func(error) { ends = append(ends, eng.Now()) })
	b.Program(0, nand.Addr{Die: 1}, nil, func(error) { ends = append(ends, eng.Now()) })
	eng.Run()
	tm := b.Timing()
	xfer := 2*tm.CmdCycle + 5*tm.AddrCycle + tm.TransferTime(2048)
	// Second program's transfer waits for the first transfer only, not for
	// the first tPROG.
	want1 := xfer + tm.ProgramPage
	want2 := 2*xfer + tm.ProgramPage
	if ends[0] != want1 || ends[1] != want2 {
		t.Errorf("ends = %v, want [%d %d]", ends, want1, want2)
	}

	// Same die: full serialization.
	eng2, b2 := testBus(t, 1)
	var ends2 []sim.Time
	b2.Program(0, nand.Addr{Die: 0, Page: 0}, nil, func(error) { ends2 = append(ends2, eng2.Now()) })
	b2.Program(0, nand.Addr{Die: 0, Page: 1}, nil, func(error) { ends2 = append(ends2, eng2.Now()) })
	eng2.Run()
	if ends2[1] != 2*(xfer+tm.ProgramPage) {
		t.Errorf("same-die second program at %d, want %d", ends2[1], 2*(xfer+tm.ProgramPage))
	}
}

func TestProgramErrorPropagates(t *testing.T) {
	eng, b := testBus(t, 1)
	var errs []error
	b.Program(0, nand.Addr{}, nil, func(err error) { errs = append(errs, err) })
	eng.Run()
	// Overwrite without erase: second program must report an error.
	b.Program(0, nand.Addr{}, nil, func(err error) { errs = append(errs, err) })
	eng.Run()
	if errs[0] != nil {
		t.Errorf("first program err = %v", errs[0])
	}
	if errs[1] == nil {
		t.Error("overwrite program reported no error")
	}
}

func TestObserverSeesProtocolSequence(t *testing.T) {
	eng, b := testBus(t, 1)
	var kinds []EventKind
	var cmds []byte
	b.Observe(ObserverFunc(func(ev BusEvent) {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == EventCmd {
			cmds = append(cmds, ev.Byte)
		}
	}))
	b.Program(0, nand.Addr{Block: 1}, nil, nil)
	eng.Run()
	wantKinds := []EventKind{EventCmd, EventAddr, EventAddr, EventAddr, EventAddr, EventAddr, EventDataIn, EventCmd, EventBusy, EventReady}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("got %d events %v, want %d", len(kinds), kinds, len(wantKinds))
	}
	for i := range wantKinds {
		if kinds[i] != wantKinds[i] {
			t.Errorf("event %d = %v, want %v", i, kinds[i], wantKinds[i])
		}
	}
	if cmds[0] != CmdProgramSetup || cmds[1] != CmdProgramConfirm {
		t.Errorf("cmd bytes = %x, want [80 10]", cmds)
	}
}

func TestObserverRowAddressDecodes(t *testing.T) {
	eng, b := testBus(t, 1)
	g := b.chips[0].Geometry()
	target := nand.Addr{Die: 1, Plane: 1, Block: 7, Page: 3}
	var rowBytes []byte
	b.Observe(ObserverFunc(func(ev BusEvent) {
		if ev.Kind == EventAddr {
			rowBytes = append(rowBytes, ev.Byte)
		}
	}))
	b.Program(0, target, nil, nil)
	eng.Run()
	// 2 column cycles then 3 row cycles.
	if len(rowBytes) != 5 {
		t.Fatalf("got %d addr cycles, want 5", len(rowBytes))
	}
	row := RowFromBytes([3]byte{rowBytes[2], rowBytes[3], rowBytes[4]})
	if got := g.AddrOf(int64(row)); got != target {
		t.Errorf("decoded addr %v, want %v", got, target)
	}
}

func TestUnobserve(t *testing.T) {
	eng, b := testBus(t, 1)
	n := 0
	detach := b.Observe(ObserverFunc(func(BusEvent) { n++ }))
	detach()
	detach() // second detach is a no-op
	b.Program(0, nand.Addr{}, nil, nil)
	eng.Run()
	if n != 0 {
		t.Errorf("events after Unobserve: %d", n)
	}
}

func TestBusStats(t *testing.T) {
	eng, b := testBus(t, 2)
	b.Program(0, nand.Addr{}, nil, nil)
	b.Program(1, nand.Addr{}, nil, nil)
	b.ReadEx(0, nand.Addr{}, nil, nil)
	b.Erase(1, nand.Addr{}, nil)
	eng.Run()
	s := b.Stats()
	if s.Programs != 2 || s.Reads != 1 || s.Erases != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.BytesIn != 2*2048 || s.BytesOut != 2048 {
		t.Errorf("bytes = in %d out %d", s.BytesIn, s.BytesOut)
	}
	if b.Utilization() <= 0 {
		t.Error("bus utilization not accounted")
	}
}

// CmdName returns a human-readable name for an opcode, for annotating
// captured command cycles.
func CmdName(b byte) string {
	switch b {
	case CmdReadSetup:
		return "READ"
	case CmdReadConfirm:
		return "READ-CONFIRM"
	case CmdProgramSetup:
		return "PROGRAM"
	case CmdProgramConfirm:
		return "PROGRAM-CONFIRM"
	case CmdProgramPlane:
		return "PLANE-CONFIRM"
	case CmdEraseSetup:
		return "ERASE"
	case CmdEraseConfirm:
		return "ERASE-CONFIRM"
	case CmdReadStatus:
		return "READ-STATUS"
	case CmdReadID:
		return "READ-ID"
	case CmdReadParamPage:
		return "READ-PARAM-PAGE"
	case CmdReset:
		return "RESET"
	default:
		return "UNKNOWN"
	}
}

func TestCmdNameCoverage(t *testing.T) {
	for _, c := range []byte{CmdReadSetup, CmdReadConfirm, CmdProgramSetup, CmdProgramConfirm, CmdProgramPlane, CmdEraseSetup, CmdEraseConfirm, CmdReadStatus, CmdReadID, CmdReset} {
		if CmdName(c) == "UNKNOWN" {
			t.Errorf("CmdName(%#x) unknown", c)
		}
	}
	if CmdName(0x42) != "UNKNOWN" {
		t.Error("unexpected name for bogus opcode")
	}
}

func TestReadID(t *testing.T) {
	eng, b := testBus(t, 2)
	var got [5]byte
	b.ReadID(1, func(id [5]byte, err error) {
		if err != nil {
			t.Errorf("ReadID: %v", err)
		}
		got = id
	})
	eng.Run()
	want := b.chips[1].IDBytes()
	if got != want {
		t.Errorf("id = %x, want %x", got, want)
	}
}

func TestReadIDObservable(t *testing.T) {
	eng, b := testBus(t, 1)
	var cmd byte
	var data []byte
	b.Observe(ObserverFunc(func(ev BusEvent) {
		switch ev.Kind {
		case EventCmd:
			cmd = ev.Byte
		case EventDataOut:
			data = ev.Data
		}
	}))
	b.ReadID(0, nil)
	eng.Run()
	if cmd != CmdReadID {
		t.Errorf("observed cmd %#x", cmd)
	}
	if len(data) != 5 {
		t.Fatalf("observed %d id bytes", len(data))
	}
}

func TestReadParameterPage(t *testing.T) {
	eng, b := testBus(t, 1)
	var page []byte
	b.ReadParameterPage(0, func(p []byte, err error) {
		if err != nil {
			t.Errorf("ReadParameterPage: %v", err)
		}
		page = p
	})
	eng.Run()
	parsed, ok := nand.ParseParameterPage(page)
	if !ok || !parsed.CRCOK {
		t.Fatalf("bad parameter page: ok=%v crc=%v", ok, parsed.CRCOK)
	}
	if parsed.PageBytes != 2048 {
		t.Errorf("page bytes = %d", parsed.PageBytes)
	}
}

func TestReadExReportsBitErrors(t *testing.T) {
	eng := sim.NewEngine()
	g := nand.Geometry{Dies: 1, Planes: 1, BlocksPerPlane: 4, PagesPerBlock: 8, PageSize: 512}
	chip := nand.NewChip(nand.ChipConfig{
		Geometry:    g,
		Reliability: nand.Reliability{BaseBits: 3},
		Clock:       func() int64 { return eng.Now() },
	})
	b := NewBus(eng, 0, nand.ONFI2MLC(), chip)
	b.Program(0, nand.Addr{}, nil, nil)
	eng.Run()
	var bits int
	b.ReadEx(0, nand.Addr{}, nil, func(n int, err error) { bits = n })
	eng.Run()
	if bits != 3 {
		t.Errorf("bit errors = %d, want 3", bits)
	}
}

func TestReadPriSuspendsBackgroundProgram(t *testing.T) {
	eng, b := testBus(t, 1)
	tm := b.Timing()
	// Start a background program; issue a priority read mid-array-phase.
	var progEnd, readEnd sim.Time
	b.ProgramBG(0, nand.Addr{Die: 0}, nil, false, func(error) { progEnd = eng.Now() })
	// Prime the target page on the other die so the read has data.
	b.Program(0, nand.Addr{Die: 1}, nil, nil)
	eng.RunUntil(eng.Now() + tm.ProgramPage/2)
	b.ReadPri(0, nand.Addr{Die: 0}, nil, func(int, error) { readEnd = eng.Now() })
	eng.Run()
	// Without suspend the read would wait the remaining ~tPROG/2 plus tR;
	// with suspend it costs roughly SuspendOverhead + tR + transfer.
	maxSuspended := eng.Now() // just need bounds below
	_ = maxSuspended
	if readEnd == 0 || progEnd == 0 {
		t.Fatal("ops did not complete")
	}
	budget := tm.ProgramPage/2 + SuspendOverhead + tm.ReadPage + tm.TransferTime(2048) + 10*sim.Microsecond
	if readEnd > budget {
		t.Errorf("priority read finished at %d, budget %d (suspend did not bypass)", readEnd, budget)
	}
}

func TestReadPriWithoutBackgroundFallsBack(t *testing.T) {
	eng, b := testBus(t, 1)
	var end sim.Time
	b.ReadPri(0, nand.Addr{}, nil, func(int, error) { end = eng.Now() })
	eng.Run()
	tm := b.Timing()
	want := 2*tm.CmdCycle + 5*tm.AddrCycle + tm.ReadPage + tm.TransferTime(2048)
	if end != want {
		t.Errorf("fallback read at %d, want %d", end, want)
	}
}

func TestEraseBGSuspendable(t *testing.T) {
	eng, b := testBus(t, 1)
	tm := b.Timing()
	b.Program(0, nand.Addr{Die: 0}, nil, func(error) {
		b.EraseBG(0, nand.Addr{Die: 0}, nil)
		// Mid-erase, a priority read on the same die must suspend it.
		eng.Schedule(tm.EraseBlock/2, func() {
			start := eng.Now()
			b.ReadPri(0, nand.Addr{Die: 0, Block: 1}, nil, func(int, error) {
				lat := eng.Now() - start
				budget := SuspendOverhead + tm.ReadPage + tm.TransferTime(2048) + 5*sim.Microsecond
				if lat > budget {
					t.Errorf("read during erase took %d, budget %d", lat, budget)
				}
			})
		})
	})
	eng.Run()
}

// A priority read that suspends a background program puts on the bus, between
// its issue and its completion, the same command, address, R/B# and data-out
// sequence as a plain read of the page: a probe sees a read that returns
// data, not a bare command.
func TestReadPriSuspendMatchesReadSequence(t *testing.T) {
	type cycle struct {
		kind EventKind
		b    byte
	}
	page := nand.Addr{Die: 0, Block: 1}
	probe := func(suspend bool) []cycle {
		eng, b := testBus(t, 1)
		b.Program(0, page, nil, nil)
		eng.Run()
		if suspend {
			b.ProgramBG(0, nand.Addr{Die: 0, Block: 2}, nil, false, nil)
			eng.RunUntil(eng.Now() + b.Timing().ProgramPage/2)
		}
		var seq []cycle
		recording := true
		b.Observe(ObserverFunc(func(ev BusEvent) {
			if recording {
				seq = append(seq, cycle{ev.Kind, ev.Byte})
			}
		}))
		done := func(int, error) { recording = false }
		if suspend {
			b.ReadPri(0, page, nil, done)
		} else {
			b.ReadEx(0, page, nil, done)
		}
		eng.Run()
		return seq
	}
	plain, pri := probe(false), probe(true)
	want := []EventKind{EventCmd, EventAddr, EventAddr, EventAddr, EventAddr, EventAddr, EventCmd, EventBusy, EventReady, EventDataOut}
	if len(plain) != len(want) {
		t.Fatalf("plain read emitted %v, want kinds %v", plain, want)
	}
	for i, k := range want {
		if plain[i].kind != k {
			t.Fatalf("plain read event %d = %v, want %v", i, plain[i].kind, k)
		}
	}
	if plain[0].b != CmdReadSetup || plain[6].b != CmdReadConfirm {
		t.Fatalf("plain read commands %x/%x, want %x/%x", plain[0].b, plain[6].b, CmdReadSetup, CmdReadConfirm)
	}
	if !reflect.DeepEqual(pri, plain) {
		t.Errorf("suspending priority read emitted %v, want %v", pri, plain)
	}
}
