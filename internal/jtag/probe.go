package jtag

import "fmt"

// Pins is the GPIO bit-bang adapter: four wires to the TAP, driven the way
// a Linux pinctrl client toggles header pins. TDO updates on each TCK
// rising edge.
type Pins struct {
	tap *TAP

	TCK, TMS, TDI bool
	TDO           bool
	// Edges counts TCK rising edges, for tooling that reports shift cost.
	Edges int64
}

// NewPins wires an adapter to a TAP.
func NewPins(tap *TAP) *Pins {
	return &Pins{tap: tap}
}

// SetTCK drives the clock pin; a rising edge clocks the TAP.
func (p *Pins) SetTCK(v bool) {
	if v && !p.TCK {
		p.TDO = p.tap.Clock(p.TMS, p.TDI)
		p.Edges++
	}
	p.TCK = v
}

// SetTMS drives the mode-select pin.
func (p *Pins) SetTMS(v bool) { p.TMS = v }

// SetTDI drives the data-in pin.
func (p *Pins) SetTDI(v bool) { p.TDI = v }

// Pulse clocks one full TCK cycle with the given TMS/TDI and returns TDO.
func (p *Pins) Pulse(tms, tdi bool) bool {
	p.SetTMS(tms)
	p.SetTDI(tdi)
	p.SetTCK(true)
	p.SetTCK(false)
	return p.TDO
}

// Probe drives a Pins adapter through TAP state navigation and register
// shifts — the software OpenOCD would be in the paper's setup.
type Probe struct {
	pins *Pins
}

// NewProbe returns a probe over the adapter.
func NewProbe(pins *Pins) *Probe { return &Probe{pins: pins} }

// Reset forces Test-Logic-Reset (five TMS=1 clocks) then parks in
// Run-Test/Idle.
func (p *Probe) Reset() {
	for i := 0; i < 5; i++ {
		p.pins.Pulse(true, false)
	}
	p.pins.Pulse(false, false)
}

// shift moves from Run-Test/Idle through Capture/Shift of the selected
// register, shifting n bits of `out` LSB-first, and returns the captured
// bits; it exits via Update back to Run-Test/Idle. n must be 1 to 64: no
// caller scans an empty or wider register, and either would leave the TAP
// off Run-Test/Idle or drop bits. The TAP must be in Run-Test/Idle with TCK
// low, where Reset and every scan leave it; shift panics otherwise, before
// driving any edge.
//
// It drives the same n+5 edges (n+6 for IR) as pulsing each one through the
// pins, and leaves the TAP, the pins and Edges as that would, but clocks the
// navigation edges straight on the TAP and the n data edges as one
// TAP.shiftRun.
func (p *Probe) shift(ir bool, out uint64, n int) uint64 {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("jtag: scan width %d outside 1..64", n))
	}
	tap := p.pins.tap
	if tap.state != RunTestIdle {
		panic(fmt.Sprintf("jtag: scan entered in %v, not Run-Test/Idle", tap.state))
	}
	if p.pins.TCK {
		panic("jtag: scan entered with TCK high")
	}
	edges := int64(n + 5)
	// Run-Test/Idle -> Select-DR-Scan (-> Select-IR-Scan if IR)
	tap.Clock(true, false)
	if ir {
		tap.Clock(true, false)
		edges++
	}
	// -> Capture, -> Shift (the entry edge does not shift)
	tap.Clock(false, false)
	tap.Clock(false, false)
	// Each data edge shifts one bit; the last exits to Exit1.
	in := tap.shiftRun(out, n)
	// Exit1 -> Update -> Run-Test/Idle
	tap.Clock(true, false)
	pins := p.pins
	pins.TDO = tap.Clock(false, false)
	pins.TMS, pins.TDI = false, false
	pins.Edges += edges
	return in
}

// ShiftIR latches an instruction and returns the captured IR bits. It
// panics unless 1 <= width <= 64.
func (p *Probe) ShiftIR(instr uint64, width int) uint64 {
	return p.shift(true, instr, width)
}

// ShiftDR exchanges a data register value and returns the captured bits.
// It panics unless 1 <= width <= 64.
func (p *Probe) ShiftDR(value uint64, width int) uint64 {
	return p.shift(false, value, width)
}

// Edges returns total TCK rising edges driven so far.
func (p *Probe) Edges() int64 { return p.pins.Edges }
