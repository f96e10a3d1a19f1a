package nand

import "ssdtp/internal/sim"

// Timing holds the latency parameters of a NAND package. Array times
// (ReadPage/ProgramPage/EraseBlock) are internal die operations during which
// the channel bus is free; cycle times are consumed on the bus.
type Timing struct {
	ReadPage    sim.Time // tR: array read into the page register
	ProgramPage sim.Time // tPROG: page register into the array
	EraseBlock  sim.Time // tBERS
	CmdCycle    sim.Time // one command byte on the bus
	AddrCycle   sim.Time // one address byte on the bus
	DataCycle   sim.Time // one data byte on the bus
}

// ONFI2MLC returns timing typical of the ONFI 2.x MLC parts used in
// SATA-era consumer SSDs (OCZ Vertex II class): ~166 MT/s bus,
// tR 50 µs, tPROG 900 µs, tBERS 3 ms.
func ONFI2MLC() Timing {
	return Timing{
		ReadPage:    50 * sim.Microsecond,
		ProgramPage: 900 * sim.Microsecond,
		EraseBlock:  3 * sim.Millisecond,
		CmdCycle:    25 * sim.Nanosecond,
		AddrCycle:   25 * sim.Nanosecond,
		DataCycle:   6 * sim.Nanosecond,
	}
}

// ONFI3TLC returns timing typical of planar/early-3D TLC parts
// (Samsung 840 EVO / Crucial MX500 class): ~400 MT/s bus,
// tR 80 µs, tPROG 1.3 ms, tBERS 4 ms.
func ONFI3TLC() Timing {
	return Timing{
		ReadPage:    80 * sim.Microsecond,
		ProgramPage: 1300 * sim.Microsecond,
		EraseBlock:  4 * sim.Millisecond,
		CmdCycle:    10 * sim.Nanosecond,
		AddrCycle:   10 * sim.Nanosecond,
		DataCycle:   3 * sim.Nanosecond,
	}
}

// SLCMode returns t with array times reduced as in pseudo-SLC operation:
// programming one bit per cell is roughly 4x faster, reads ~2x.
func (t Timing) SLCMode() Timing {
	t.ProgramPage /= 4
	t.ReadPage /= 2
	t.EraseBlock /= 2
	return t
}

// TransferTime returns bus time for n data bytes.
func (t Timing) TransferTime(n int) sim.Time {
	return sim.Time(n) * t.DataCycle
}
