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
// off Run-Test/Idle or drop bits.
func (p *Probe) shift(ir bool, out uint64, n int) uint64 {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("jtag: scan width %d outside 1..64", n))
	}
	// Run-Test/Idle -> Select-DR-Scan (-> Select-IR-Scan if IR)
	p.pins.Pulse(true, false)
	if ir {
		p.pins.Pulse(true, false)
	}
	// -> Capture, -> Shift (the entry edge does not shift)
	p.pins.Pulse(false, false)
	p.pins.Pulse(false, false)
	var in uint64
	for i := 0; i < n; i++ {
		last := i == n-1
		bit := out&1 != 0
		out >>= 1
		// Each edge shifts one bit; the last exits to Exit1.
		tdo := p.pins.Pulse(last, bit)
		if tdo {
			in |= 1 << uint(i)
		}
	}
	// Exit1 -> Update -> Run-Test/Idle
	p.pins.Pulse(true, false)
	p.pins.Pulse(false, false)
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
