package jtag

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fakeTarget is a minimal debug target: IDCODE, ctrl, and a small word
// memory with the auto-increment data register.
type fakeTarget struct {
	idcode uint32
	mem    map[uint32]uint32
	addr   uint32
	ctrl   uint8
	resets int
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{idcode: 0x4BA00477, mem: make(map[uint32]uint32)}
}

func (f *fakeTarget) IRWidth() int { return 4 }
func (f *fakeTarget) ResetTAP()    { f.resets++ }

func (f *fakeTarget) DRWidth(ir uint64) int {
	switch ir {
	case IRIDCode, IRDbgAddr, IRPCSample:
		return 32
	case IRDbgCtrl:
		return 8
	case IRDbgData:
		return 33
	default:
		return 1 // BYPASS
	}
}

func (f *fakeTarget) CaptureDR(ir uint64) uint64 {
	switch ir {
	case IRIDCode:
		return uint64(f.idcode)
	case IRDbgCtrl:
		return uint64(f.ctrl)
	case IRDbgData:
		return uint64(f.mem[f.addr])
	case IRPCSample:
		return 0x1000 + uint64(f.ctrl&CtrlCoreMask)*0x100
	default:
		return 0
	}
}

func (f *fakeTarget) UpdateDR(ir uint64, v uint64) {
	switch ir {
	case IRDbgAddr:
		f.addr = uint32(v)
	case IRDbgCtrl:
		f.ctrl = uint8(v)
		if v&CtrlHaltBit != 0 {
			f.ctrl |= 1 << uint(v&CtrlCoreMask) // mark halted (status view)
		}
	case IRDbgData:
		if v&DataWriteBit != 0 {
			f.mem[f.addr] = uint32(v)
		}
		f.addr += 4
	}
}

func rig() (*fakeTarget, *Debugger) {
	ft := newFakeTarget()
	probe := NewProbe(NewPins(NewTAP(ft)))
	probe.Reset()
	return ft, NewDebugger(probe, ft.IRWidth())
}

func TestStateMachineResetFromAnywhere(t *testing.T) {
	// Five TMS=1 clocks reach Test-Logic-Reset from every state.
	for s := TestLogicReset; s <= UpdateIR; s++ {
		cur := s
		for i := 0; i < 5; i++ {
			cur = NextState(cur, true)
		}
		if cur != TestLogicReset {
			t.Errorf("from %v, 5x TMS=1 reached %v", s, cur)
		}
	}
}

func TestStateTransitionTableTotal(t *testing.T) {
	// Every state must have defined transitions for both TMS levels.
	for s := TestLogicReset; s <= UpdateIR; s++ {
		for _, tms := range []bool{false, true} {
			n := NextState(s, tms)
			if n < TestLogicReset || n > UpdateIR {
				t.Errorf("NextState(%v,%v) = %v out of range", s, tms, n)
			}
		}
	}
}

// TestNextStateMatchesDiagram pins every edge of the IEEE 1149.1 TAP
// controller state diagram, written as the standard draws it:
// each state with its TMS=0 and TMS=1 successor.
func TestNextStateMatchesDiagram(t *testing.T) {
	diagram := []struct {
		from, tms0, tms1 string
	}{
		{"Test-Logic-Reset", "Run-Test/Idle", "Test-Logic-Reset"},
		{"Run-Test/Idle", "Run-Test/Idle", "Select-DR-Scan"},
		{"Select-DR-Scan", "Capture-DR", "Select-IR-Scan"},
		{"Capture-DR", "Shift-DR", "Exit1-DR"},
		{"Shift-DR", "Shift-DR", "Exit1-DR"},
		{"Exit1-DR", "Pause-DR", "Update-DR"},
		{"Pause-DR", "Pause-DR", "Exit2-DR"},
		{"Exit2-DR", "Shift-DR", "Update-DR"},
		{"Update-DR", "Run-Test/Idle", "Select-DR-Scan"},
		{"Select-IR-Scan", "Capture-IR", "Test-Logic-Reset"},
		{"Capture-IR", "Shift-IR", "Exit1-IR"},
		{"Shift-IR", "Shift-IR", "Exit1-IR"},
		{"Exit1-IR", "Pause-IR", "Update-IR"},
		{"Pause-IR", "Pause-IR", "Exit2-IR"},
		{"Exit2-IR", "Shift-IR", "Update-IR"},
		{"Update-IR", "Run-Test/Idle", "Select-DR-Scan"},
	}
	if len(diagram) != int(UpdateIR)+1 {
		t.Fatalf("diagram has %d states, want %d", len(diagram), int(UpdateIR)+1)
	}
	for i, e := range diagram {
		s := State(i)
		if s.String() != e.from {
			t.Fatalf("diagram row %d is %s, want %v", i, e.from, s)
		}
		if got := NextState(s, false).String(); got != e.tms0 {
			t.Errorf("NextState(%v, TMS=0) = %v, want %v", s, got, e.tms0)
		}
		if got := NextState(s, true).String(); got != e.tms1 {
			t.Errorf("NextState(%v, TMS=1) = %v, want %v", s, got, e.tms1)
		}
	}
}

// countingTarget counts IRWidth calls.
type countingTarget struct {
	*fakeTarget
	irWidthCalls int
}

func (c *countingTarget) IRWidth() int {
	c.irWidthCalls++
	return c.fakeTarget.IRWidth()
}

// The TAP reads the IR width once, in NewTAP: shifts, updates and resets
// make no IRWidth call.
func TestTAPReadsIRWidthOnce(t *testing.T) {
	ct := &countingTarget{fakeTarget: newFakeTarget()}
	probe := NewProbe(NewPins(NewTAP(ct)))
	d := NewDebugger(probe, 4)
	for i := 0; i < 3; i++ {
		d.Reset()
		if got := d.IDCode(); got != ct.idcode {
			t.Fatalf("IDCode = %#x, want %#x", got, ct.idcode)
		}
		d.WriteWord(0x100, 0xCAFE)
		d.ReadWord(0x100)
	}
	if ct.irWidthCalls != 1 {
		t.Errorf("IRWidth called %d times, want 1", ct.irWidthCalls)
	}
}

// A scan width outside 1..64 panics, naming the width, before any edge is
// driven, so the probe stays in Run-Test/Idle and keeps working.
func TestShiftWidthOutOfRangePanics(t *testing.T) {
	ft, d := rig()
	p := d.probe
	for _, w := range []int{0, 65} {
		for _, sc := range []struct {
			name  string
			shift func(uint64, int) uint64
		}{{"ShiftIR", p.ShiftIR}, {"ShiftDR", p.ShiftDR}} {
			func() {
				defer func() {
					r := recover()
					if r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprint(w)) {
						t.Errorf("%s(width %d): recovered %v, want a panic naming the width", sc.name, w, r)
					}
				}()
				sc.shift(0, w)
			}()
			if got := d.IDCode(); got != ft.idcode {
				t.Errorf("after %s(width %d): IDCode = %#x, want %#x", sc.name, w, got, ft.idcode)
			}
		}
	}
}

func TestIDCode(t *testing.T) {
	ft, d := rig()
	if got := d.IDCode(); got != ft.idcode {
		t.Errorf("IDCode = %#x, want %#x", got, ft.idcode)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	ft, d := rig()
	ft.mem[0x2000_0000] = 0xDEADBEEF
	if got := d.ReadWord(0x2000_0000); got != 0xDEADBEEF {
		t.Errorf("ReadWord = %#x", got)
	}
	d.WriteWord(0x2000_0004, 0x12345678)
	if ft.mem[0x2000_0004] != 0x12345678 {
		t.Errorf("write did not land: %#x", ft.mem[0x2000_0004])
	}
}

func TestReadBlockAutoIncrement(t *testing.T) {
	ft, d := rig()
	for i := uint32(0); i < 8; i++ {
		ft.mem[0x100+i*4] = 0xA0 + i
	}
	got := d.ReadBlock(0x100, 8)
	for i, v := range got {
		if v != 0xA0+uint32(i) {
			t.Fatalf("block[%d] = %#x, want %#x", i, v, 0xA0+uint32(i))
		}
	}
}

func TestHaltStatusAndPC(t *testing.T) {
	_, d := rig()
	d.Halt(2)
	if !d.Halted(2) {
		t.Error("core 2 not halted")
	}
	if pc := d.PC(2); pc != 0x1200 {
		t.Errorf("PC = %#x, want 0x1200", pc)
	}
}

func TestResetCallsTarget(t *testing.T) {
	ft := newFakeTarget()
	probe := NewProbe(NewPins(NewTAP(ft)))
	before := ft.resets
	probe.Reset()
	if ft.resets <= before {
		t.Error("TAP reset did not reach target")
	}
}

func TestBypassWhenUnknownIR(t *testing.T) {
	ft, d := rig()
	_ = ft
	// Latch BYPASS explicitly: DR must behave as a 1-bit register.
	p := d.probe
	p.ShiftIR(IRBypass(4), 4)
	// Shift 8 bits of 0b10110101 through the 1-bit bypass: output is input
	// delayed by one bit.
	in := uint64(0b10110101)
	out := p.ShiftDR(in, 8)
	if out>>1 != in&0x7F {
		t.Errorf("bypass delay chain: in=%08b out=%08b", in, out)
	}
}

// Property: for random word values, a JTAG write followed by a read through
// the full pin-level stack returns the same value.
func TestMemoryRoundTripProperty(t *testing.T) {
	ft, d := rig()
	_ = ft
	f := func(addrSeed uint16, val uint32) bool {
		addr := uint32(addrSeed) * 4
		d.WriteWord(addr, val)
		return d.ReadWord(addr) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the TAP state machine stays in a defined state (and never
// panics) under arbitrary TMS/TDI sequences, and a subsequent reset always
// restores a working debugger.
func TestRandomTMSNeverPanics(t *testing.T) {
	ft := newFakeTarget()
	tap := NewTAP(ft)
	pins := NewPins(tap)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		pins.Pulse(rng.Intn(2) == 0, rng.Intn(2) == 0)
		if s := tap.StateName(); s < TestLogicReset || s > UpdateIR {
			t.Fatalf("undefined state %v", s)
		}
	}
	probe := NewProbe(pins)
	probe.Reset()
	d := NewDebugger(probe, ft.IRWidth())
	if got := d.IDCode(); got != ft.idcode {
		t.Errorf("IDCode after chaos = %#x, want %#x", got, ft.idcode)
	}
}
