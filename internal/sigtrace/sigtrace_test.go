package sigtrace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ssdtp/internal/nand"
	"ssdtp/internal/onfi"
	"ssdtp/internal/sim"
)

// rigGeom is probeRig's chip geometry.
var rigGeom = nand.Geometry{Dies: 2, Planes: 2, BlocksPerPlane: 8, PagesPerBlock: 16, PageSize: 4096, OOBSize: 128}

func probeRig(t *testing.T) (*sim.Engine, *onfi.Bus, *Analyzer) {
	t.Helper()
	eng := sim.NewEngine()
	chip := nand.NewChip(nand.ChipConfig{Geometry: rigGeom})
	bus := onfi.NewBus(eng, 0, nand.ONFI2MLC(), chip)
	an := Attach(bus)
	an.Arm()
	return eng, bus, an
}

func TestDecodeProgram(t *testing.T) {
	eng, bus, an := probeRig(t)
	g := rigGeom
	target := nand.Addr{Die: 1, Plane: 0, Block: 3, Page: 0}
	bus.Program(0, target, nil, nil)
	eng.Run()
	ops := Decode(an.Events())
	if len(ops) != 1 {
		t.Fatalf("decoded %d ops, want 1", len(ops))
	}
	op := ops[0]
	if op.Kind != OpProgram {
		t.Errorf("kind = %v", op.Kind)
	}
	if op.DataBytes != 4096 {
		t.Errorf("data bytes = %d", op.DataBytes)
	}
	if op.Die != 1 || op.Planes != 1 {
		t.Errorf("die=%d planes=%d", op.Die, op.Planes)
	}
	if len(op.Rows) != 1 || g.AddrOf(int64(op.Rows[0])) != target {
		t.Errorf("decoded row %v does not map back to %v", op.Rows, target)
	}
	if op.BusyTime != nand.ONFI2MLC().ProgramPage {
		t.Errorf("busy = %d, want tPROG %d", op.BusyTime, nand.ONFI2MLC().ProgramPage)
	}
}

func TestDecodeReadAndErase(t *testing.T) {
	eng, bus, an := probeRig(t)
	a := nand.Addr{Block: 2}
	bus.Program(0, a, nil, func(error) {
		bus.ReadEx(0, a, nil, func(int, error) {
			bus.Erase(0, a, nil)
		})
	})
	eng.Run()
	ops := Decode(an.Events())
	if len(ops) != 3 {
		t.Fatalf("decoded %d ops, want 3: %v", len(ops), ops)
	}
	if ops[0].Kind != OpProgram || ops[1].Kind != OpRead || ops[2].Kind != OpErase {
		t.Errorf("kinds = %v %v %v", ops[0].Kind, ops[1].Kind, ops[2].Kind)
	}
	if ops[1].DataBytes != 4096 {
		t.Errorf("read bytes = %d", ops[1].DataBytes)
	}
	if ops[2].BusyTime != nand.ONFI2MLC().EraseBlock {
		t.Errorf("erase busy = %d", ops[2].BusyTime)
	}
}

// TestDecodeMultiPlane feeds a hand-built two-plane program, the sequence a
// real drive's bus carries for one: per plane the setup command, address
// cycles and payload, a plane confirm after the first page and the final
// confirm after the second, then one busy interval for both.
func TestDecodeMultiPlane(t *testing.T) {
	addrs := []nand.Addr{{Plane: 0, Block: 1}, {Plane: 1, Block: 1}}
	var evs []onfi.BusEvent
	at := func(ev onfi.BusEvent) {
		ev.Time = sim.Time(len(evs))
		evs = append(evs, ev)
	}
	for i, a := range addrs {
		at(onfi.BusEvent{Kind: onfi.EventCmd, Byte: onfi.CmdProgramSetup})
		for range onfi.ColumnAddrCycles {
			at(onfi.BusEvent{Kind: onfi.EventAddr})
		}
		for _, b := range onfi.RowBytes(rigGeom.RowAddress(a)) {
			at(onfi.BusEvent{Kind: onfi.EventAddr, Byte: b})
		}
		at(onfi.BusEvent{Kind: onfi.EventDataIn, Len: rigGeom.PageSize})
		confirm := onfi.CmdProgramPlane
		if i == len(addrs)-1 {
			confirm = onfi.CmdProgramConfirm
		}
		at(onfi.BusEvent{Kind: onfi.EventCmd, Byte: confirm})
	}
	at(onfi.BusEvent{Kind: onfi.EventBusy})
	at(onfi.BusEvent{Kind: onfi.EventReady})
	ops := Decode(evs)
	if len(ops) != 1 {
		t.Fatalf("decoded %d ops, want 1", len(ops))
	}
	if ops[0].Planes != 2 || len(ops[0].Rows) != 2 {
		t.Errorf("planes=%d rows=%v", ops[0].Planes, ops[0].Rows)
	}
	if ops[0].DataBytes != 8192 {
		t.Errorf("data bytes = %d", ops[0].DataBytes)
	}
	for i, row := range ops[0].Rows {
		if got := rigGeom.AddrOf(int64(row)); got != addrs[i] {
			t.Errorf("row %d decodes to %v, want %v", i, got, addrs[i])
		}
	}
}

func TestDecodeSLCDetectableByBusyTime(t *testing.T) {
	eng, bus, an := probeRig(t)
	bus.ProgramSLC(0, nand.Addr{Block: 1}, nil, nil)
	eng.Run()
	ops := Decode(an.Events())
	if len(ops) != 1 {
		t.Fatalf("decoded %d ops", len(ops))
	}
	want := nand.ONFI2MLC().SLCMode().ProgramPage
	if ops[0].BusyTime != want {
		t.Errorf("SLC busy = %d, want %d", ops[0].BusyTime, want)
	}
}

func TestArmStopClear(t *testing.T) {
	eng, bus, an := probeRig(t)
	an.Stop()
	bus.Program(0, nand.Addr{}, nil, nil)
	eng.Run()
	if len(an.Events()) != 0 {
		t.Error("captured while disarmed")
	}
	an.Arm()
	bus.Program(0, nand.Addr{Page: 1}, nil, nil)
	eng.Run()
	if len(an.Events()) == 0 {
		t.Error("captured nothing while armed")
	}
	an.Clear()
	if len(an.Events()) != 0 {
		t.Error("Clear did not clear")
	}
	an.Detach()
	bus.Program(0, nand.Addr{Page: 2}, nil, nil)
	eng.Run()
	if len(an.Events()) != 0 {
		t.Error("captured after detach")
	}
}

func TestBufferLimitTruncates(t *testing.T) {
	eng := sim.NewEngine()
	g := nand.Geometry{Dies: 1, Planes: 1, BlocksPerPlane: 4, PagesPerBlock: 16, PageSize: 512}
	chip := nand.NewChip(nand.ChipConfig{Geometry: g})
	bus := onfi.NewBus(eng, 0, nand.ONFI2MLC(), chip)
	an := Attach(bus)
	an.limit = 5
	an.Arm()
	bus.Program(0, nand.Addr{}, nil, nil)
	eng.Run()
	if !an.truncated {
		t.Error("tiny buffer did not truncate")
	}
	if len(an.Events()) != 5 {
		t.Errorf("stored %d events, want 5", len(an.Events()))
	}
}

func TestBurstsGrouping(t *testing.T) {
	eng, bus, an := probeRig(t)
	bus.Program(0, nand.Addr{}, nil, func(error) {
		// Second op well after the first completes: separate burst.
		eng.Schedule(5*sim.Millisecond, func() {
			bus.Program(0, nand.Addr{Page: 1}, nil, nil)
		})
	})
	eng.Run()
	bursts := Bursts(an.Events(), sim.Millisecond)
	if len(bursts) < 2 {
		t.Fatalf("bursts = %d, want >= 2", len(bursts))
	}
	if bursts[1].Start-bursts[0].End < sim.Millisecond {
		t.Error("bursts not separated by idle gap")
	}
	if bursts[0].Duration() <= 0 {
		t.Error("zero-duration burst")
	}
}

func TestWaveformRendersPhases(t *testing.T) {
	eng, bus, an := probeRig(t)
	bus.Program(0, nand.Addr{}, nil, nil)
	eng.Run()
	evs := an.Events()
	w := RenderWaveform(evs, 0, evs[len(evs)-1].Time+sim.Microsecond, 80)
	for _, want := range []string{"CLE", "ALE", "WE#", "RE#", "DQ", "R/B#", "C", "A", "=", "_"} {
		if !strings.Contains(w, want) {
			t.Errorf("waveform missing %q:\n%s", want, w)
		}
	}
}

func TestWaveformEmptyWindow(t *testing.T) {
	if got := RenderWaveform(nil, 10, 10, 40); !strings.Contains(got, "empty") {
		t.Errorf("empty window rendering = %q", got)
	}
}

func TestDecodeIgnoresUnknownPrefix(t *testing.T) {
	// A Ready event with no preceding operation must not crash or emit.
	ops := Decode([]onfi.BusEvent{{Kind: onfi.EventReady, Time: 5}})
	if len(ops) != 0 {
		t.Errorf("decoded %d ops from garbage", len(ops))
	}
}

func TestWriteVCD(t *testing.T) {
	eng, bus, an := probeRig(t)
	bus.Program(0, nand.Addr{}, nil, func(error) {
		bus.ReadEx(0, nand.Addr{}, nil, nil)
	})
	eng.Run()
	var buf strings.Builder
	if err := WriteVCD(&buf, an.Events()); err != nil {
		t.Fatal(err)
	}
	vcd := buf.String()
	for _, want := range []string{"$timescale 1ns $end", "$var wire 1 ! CLE", "$var wire 8 & DQ", "$enddefinitions", "#0"} {
		if !strings.Contains(vcd, want) {
			t.Errorf("VCD missing %q", want)
		}
	}
	// Timestamps must be non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(vcd, "\n") {
		if strings.HasPrefix(line, "#") {
			var ts int64
			if _, err := fmt.Sscanf(line, "#%d", &ts); err == nil {
				if ts < last {
					t.Fatalf("VCD timestamps not monotone: %d after %d", ts, last)
				}
				last = ts
			}
		}
	}
	if last <= 0 {
		t.Error("no timestamps emitted")
	}
}

func TestAttachRateAliasesSlowSampling(t *testing.T) {
	eng := sim.NewEngine()
	g := nand.Geometry{Dies: 1, Planes: 1, BlocksPerPlane: 4, PagesPerBlock: 8, PageSize: 2048}
	chip := nand.NewChip(nand.ChipConfig{Geometry: g})
	bus := onfi.NewBus(eng, 0, nand.ONFI2MLC(), chip)
	// Cycle time is 25ns; a 100ns-resolution analyzer must alias the
	// back-to-back command/address cycles.
	slow := AttachRate(bus, 100)
	fast := AttachRate(bus, 1)
	slow.Arm()
	fast.Arm()
	bus.Program(0, nand.Addr{}, nil, nil)
	eng.Run()
	if slow.Aliased() == 0 {
		t.Error("slow analyzer aliased nothing on a 40MT/s bus")
	}
	if fast.Aliased() != 0 {
		t.Errorf("fast analyzer aliased %d edges", fast.Aliased())
	}
	if len(slow.Events()) >= len(fast.Events()) {
		t.Error("slow capture not smaller than fast capture")
	}
}

// Property: any interleaving of operations across dies decodes back to
// exactly the issued multiset of (kind, die).
func TestDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		g := nand.Geometry{Dies: 2, Planes: 2, BlocksPerPlane: 8, PagesPerBlock: 16, PageSize: 2048}
		chip := nand.NewChip(nand.ChipConfig{Geometry: g})
		bus := onfi.NewBus(eng, 0, nand.ONFI2MLC(), chip)
		an := Attach(bus)
		an.Arm()

		type key struct {
			kind OpKind
			die  int
		}
		issued := map[key]int{}
		cursor := map[int]int{} // die -> next page in block 0
		n := int(nOps%24) + 4
		for i := 0; i < n; i++ {
			die := rng.Intn(2)
			switch rng.Intn(3) {
			case 0:
				if cursor[die] < 16 {
					bus.Program(0, nand.Addr{Die: die, Page: cursor[die]}, nil, nil)
					cursor[die]++
					issued[key{OpProgram, die}]++
				}
			case 1:
				bus.ReadEx(0, nand.Addr{Die: die}, nil, nil)
				issued[key{OpRead, die}]++
			case 2:
				bus.Erase(0, nand.Addr{Die: die}, nil)
				cursor[die] = 0
				issued[key{OpErase, die}]++
			}
		}
		eng.Run()
		decoded := map[key]int{}
		for _, op := range Decode(an.Events()) {
			decoded[key{op.Kind, op.Die}]++
		}
		if len(decoded) != len(issued) {
			return false
		}
		for k, v := range issued {
			if decoded[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
