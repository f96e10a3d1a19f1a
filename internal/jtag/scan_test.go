package jtag

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// targetCall is one Target callback, in the order the TAP made it.
type targetCall struct {
	op    string
	ir, v uint64
}

// scanTarget has fixed register widths and a fixed (possibly over-wide)
// capture value, and logs every callback the TAP makes.
type scanTarget struct {
	irWidth, drWidth int
	capture          uint64
	calls            []targetCall
}

func (s *scanTarget) IRWidth() int { return s.irWidth }
func (s *scanTarget) ResetTAP()    { s.calls = append(s.calls, targetCall{op: "reset"}) }

func (s *scanTarget) DRWidth(ir uint64) int {
	s.calls = append(s.calls, targetCall{op: "width", ir: ir})
	return s.drWidth
}

func (s *scanTarget) CaptureDR(ir uint64) uint64 {
	s.calls = append(s.calls, targetCall{op: "capture", ir: ir})
	return s.capture
}

func (s *scanTarget) UpdateDR(ir, v uint64) {
	s.calls = append(s.calls, targetCall{op: "update", ir: ir, v: v})
}

// refShift is Probe.shift edge by edge, every edge through Pins.Pulse: the
// model's reference for the word shift.
func refShift(p *Pins, ir bool, out uint64, n int) uint64 {
	p.Pulse(true, false)
	if ir {
		p.Pulse(true, false)
	}
	p.Pulse(false, false)
	p.Pulse(false, false)
	var in uint64
	for i := 0; i < n; i++ {
		if p.Pulse(i == n-1, out>>uint(i)&1 != 0) {
			in |= 1 << uint(i)
		}
	}
	p.Pulse(true, false)
	p.Pulse(false, false)
	return in
}

// checkShiftRun puts two TAPs in Shift-IR (ir) or Shift-DR with the w-bit
// register r, clocks n edges into one with Clock and into the other with
// shiftRun, and compares the bits shifted out and the whole TAP.
func checkShiftRun(t *testing.T, ir bool, w, n int, r, out uint64) {
	t.Helper()
	st := &scanTarget{irWidth: w, drWidth: w}
	ref, got := NewTAP(st), NewTAP(st)
	for _, tap := range []*TAP{ref, got} {
		if ir {
			tap.state, tap.shiftIR = ShiftIR, r&lowBits(w)
		} else {
			tap.state, tap.drWidth, tap.shiftDR = ShiftDR, w, r&lowBits(w)
		}
	}
	var want uint64
	for i := 0; i < n; i++ {
		if ref.Clock(i == n-1, out>>uint(i)&1 != 0) {
			want |= 1 << uint(i)
		}
	}
	in := got.shiftRun(out, n)
	if in != want || *got != *ref {
		t.Fatalf("ir=%v w=%d n=%d r=%#x out=%#x: shiftRun gave %#x and %+v, %d Clock calls %#x and %+v",
			ir, w, n, r, out, in, *got, n, want, *ref)
	}
}

// probeSide is what a scan leaves behind: the TAP (its target cleared), the
// pins (their TAP cleared) and the target's callbacks.
type probeSide struct {
	tap   TAP
	pins  Pins
	calls []targetCall
}

func sideOf(p *Pins, st *scanTarget) probeSide {
	s := probeSide{tap: *p.tap, pins: *p, calls: st.calls}
	s.tap.target, s.pins.tap = nil, nil
	return s
}

// checkProbeScan runs an IR scan of instr then a DR scan of out, each n bits
// wide, on two probes over irW/drW-bit registers whose DR captures capture:
// one edge by edge through the pins (refShift), one through Probe.shift. The
// captured bits, TAP, pins, Edges and target callbacks must agree after each.
func checkProbeScan(t *testing.T, irW, drW, n int, instr, capture, out uint64) {
	t.Helper()
	refT := &scanTarget{irWidth: irW, drWidth: drW, capture: capture}
	gotT := &scanTarget{irWidth: irW, drWidth: drW, capture: capture}
	refPins := NewPins(NewTAP(refT))
	probe := NewProbe(NewPins(NewTAP(gotT)))
	NewProbe(refPins).Reset()
	probe.Reset()
	for _, sc := range []struct {
		ir   bool
		bits uint64
	}{{true, instr}, {false, out}} {
		want := refShift(refPins, sc.ir, sc.bits, n)
		in := probe.shift(sc.ir, sc.bits, n)
		ref, got := sideOf(refPins, refT), sideOf(probe.pins, gotT)
		if in != want || !reflect.DeepEqual(got, ref) {
			t.Fatalf("irW=%d drW=%d n=%d ir=%v bits=%#x capture=%#x:\nshift     %#x %+v\nper edge  %#x %+v",
				irW, drW, n, sc.ir, sc.bits, capture, in, got, want, ref)
		}
	}
}

// The word shift equals n TAP.Clock calls, and a Probe scan equals pulsing
// every edge through the pins, for every register width 1..64 (BYPASS's 1
// included) and every scan length 1..64 on either side of it.
func TestWordShiftMatchesPerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for w := 1; w <= 64; w++ {
		for n := 1; n <= 64; n++ {
			checkShiftRun(t, true, w, n, rng.Uint64(), rng.Uint64())
			checkShiftRun(t, false, w, n, rng.Uint64(), rng.Uint64())
			checkProbeScan(t, w, w, n, rng.Uint64(), rng.Uint64(), rng.Uint64())
		}
	}
}

func FuzzTAPScan(f *testing.F) {
	f.Add(uint8(4), uint8(33), uint8(4), uint8(33), uint64(0x5), uint64(0x3), uint64(0xDEADBEEF), uint64(1)<<32)
	f.Add(uint8(1), uint8(1), uint8(8), uint8(8), ^uint64(0), ^uint64(0), ^uint64(0), uint64(0xB5))
	f.Add(uint8(64), uint8(64), uint8(64), uint8(1), uint64(0), uint64(1), uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, irW, drW, nIR, nDR uint8, r, instr, capture, out uint64) {
		iw, dw := 1+int(irW)%64, 1+int(drW)%64
		ni, nd := 1+int(nIR)%64, 1+int(nDR)%64
		checkShiftRun(t, true, iw, ni, r, instr)
		checkShiftRun(t, false, dw, nd, r, out)
		checkProbeScan(t, iw, dw, ni, instr, capture, out)
		checkProbeScan(t, iw, dw, nd, instr, capture, out)
	})
}

// Capture-DR loads only the chain's width: the bits an over-wide CaptureDR
// returns above it neither shift out nor reach UpdateDR, per edge or word.
func TestCaptureMasksToChainWidth(t *testing.T) {
	for _, n := range []int{4, 8} {
		for _, word := range []bool{false, true} {
			st := &scanTarget{irWidth: 4, drWidth: 8, capture: 0xFFFF_FF5A}
			pins := NewPins(NewTAP(st))
			probe := NewProbe(pins)
			probe.Reset()
			probe.ShiftIR(0x2, 4)
			st.calls = nil
			var in uint64
			if word {
				in = probe.ShiftDR(0x3C, n)
			} else {
				in = refShift(pins, false, 0x3C, n)
			}
			// n data edges present the chain's low n bits, and the chain
			// keeps its top 8-n bits shifted down under out's low n.
			wantIn := uint64(0x5A) & lowBits(n)
			wantUpdate := 0x5A>>uint(n) | 0x3C&lowBits(n)<<uint(8-n)
			update := st.calls[len(st.calls)-1]
			if in != wantIn || update.op != "update" || update.v != wantUpdate {
				t.Errorf("n=%d word=%v: shifted out %#x, last call %+v; want %#x and update %#x",
					n, word, in, update, wantIn, wantUpdate)
			}
		}
	}
}

// A Target register width outside 1..64 panics, naming the width: the IR
// width in NewTAP, a DR width at Capture-DR.
func TestTargetWidthOutOfRangePanics(t *testing.T) {
	wantPanic := func(what string, w int, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprintf("%s %d", what, w)) {
				t.Errorf("%s %d: recovered %v, want a panic naming it", what, w, r)
			}
		}()
		f()
	}
	for _, w := range []int{0, 65} {
		wantPanic("IR width", w, func() { NewTAP(&scanTarget{irWidth: w, drWidth: 1}) })
		probe := NewProbe(NewPins(NewTAP(&scanTarget{irWidth: 4, drWidth: w})))
		probe.Reset()
		wantPanic("DR width", w, func() { probe.ShiftDR(0, 8) })
	}
}

// A scan entered anywhere but Run-Test/Idle with TCK low panics, naming what
// is wrong, before driving any edge; a Reset then restores a working
// debugger.
func TestScanOutsideRunTestIdlePanics(t *testing.T) {
	ft := newFakeTarget()
	pins := NewPins(NewTAP(ft)) // a new TAP rests in Test-Logic-Reset
	probe := NewProbe(pins)
	d := NewDebugger(probe, ft.IRWidth())
	for _, tc := range []struct {
		name  string
		setup func()
		want  string
	}{
		{"new TAP", func() {}, "Test-Logic-Reset"},
		{"paused DR scan", func() {
			probe.Reset()
			for _, tms := range []bool{true, false, true, false} { // -> Pause-DR
				pins.Pulse(tms, false)
			}
		}, "Pause-DR"},
		{"TCK left high", func() {
			probe.Reset()
			pins.SetTCK(true)
		}, "TCK high"},
	} {
		tc.setup()
		edges := pins.Edges
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Errorf("%s: recovered %v, want a panic naming %q", tc.name, r, tc.want)
				}
			}()
			d.IDCode()
		}()
		if pins.Edges != edges {
			t.Errorf("%s: the refused scan drove %d edges", tc.name, pins.Edges-edges)
		}
		d.Reset()
		if got := d.IDCode(); got != ft.idcode {
			t.Errorf("%s: IDCode after Reset = %#x, want %#x", tc.name, got, ft.idcode)
		}
	}
}
