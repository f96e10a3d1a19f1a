package jtag

// Debug-port instruction set: the contract between the on-chip debug module
// (implemented by the firmware package's target) and the host-side
// Debugger. Modeled on vendor DAPs reachable through post-production JTAG
// ports of the kind the paper exploits (§3.2).
const (
	// IRIDCode selects the 32-bit device identification register.
	IRIDCode uint64 = 0xE
	// IRDbgCtrl selects the 8-bit control/status register. Shift-in: bits
	// [1:0] core select, bit 2 halt request, bit 3 resume request.
	// Capture: bits [2:0] per-core halted flags, bit 3 flash-controller
	// power state (1 = powered).
	IRDbgCtrl uint64 = 0x1
	// IRDbgAddr selects the 32-bit memory address register.
	IRDbgAddr uint64 = 0x2
	// IRDbgData selects the 33-bit memory data register. Capture loads the
	// word at the address register; Update with bit 32 set writes bits
	// [31:0]; either way the address register post-increments by 4.
	IRDbgData uint64 = 0x3
	// IRPCSample selects the 32-bit program-counter sample register of the
	// selected core.
	IRPCSample uint64 = 0x4
)

// Ctrl register bit layout.
const (
	CtrlCoreMask  = 0x3
	CtrlHaltBit   = 1 << 2
	CtrlResumeBit = 1 << 3
	// CtrlStepBit single-steps a halted core by one instruction.
	CtrlStepBit = 1 << 4

	// Capture-side status bits.
	StatusHaltedMask   = 0x7
	StatusFlashPowered = 1 << 3
)

// DataWriteBit flags a memory write in the IRDbgData register.
const DataWriteBit uint64 = 1 << 32

// Debugger is the OpenOCD-equivalent client: typed operations over raw IR/DR
// shifts.
type Debugger struct {
	probe   *Probe
	irWidth int
}

// NewDebugger wraps a probe whose target has the given IR width.
func NewDebugger(p *Probe, irWidth int) *Debugger {
	return &Debugger{probe: p, irWidth: irWidth}
}

// Reset resets the TAP.
func (d *Debugger) Reset() { d.probe.Reset() }

// IDCode reads the device identification register.
func (d *Debugger) IDCode() uint32 {
	d.probe.ShiftIR(IRIDCode, d.irWidth)
	return uint32(d.probe.ShiftDR(0, 32))
}

// SelectCore targets core n for subsequent halt/resume/PC operations.
func (d *Debugger) SelectCore(n int) {
	d.probe.ShiftIR(IRDbgCtrl, d.irWidth)
	d.probe.ShiftDR(uint64(n)&CtrlCoreMask, 8)
}

// Halt stops the selected core. The §3.2 exploration only samples running
// cores; the firmware package's tests halt one to check that its PC freezes
// and single-steps.
func (d *Debugger) Halt(core int) {
	d.probe.ShiftIR(IRDbgCtrl, d.irWidth)
	d.probe.ShiftDR(uint64(core)&CtrlCoreMask|CtrlHaltBit, 8)
}

// Resume restarts the selected core.
func (d *Debugger) Resume(core int) {
	d.probe.ShiftIR(IRDbgCtrl, d.irWidth)
	d.probe.ShiftDR(uint64(core)&CtrlCoreMask|CtrlResumeBit, 8)
}

// Step single-steps a halted core by one instruction.
func (d *Debugger) Step(core int) {
	d.probe.ShiftIR(IRDbgCtrl, d.irWidth)
	d.probe.ShiftDR(uint64(core)&CtrlCoreMask|CtrlStepBit, 8)
}

// Status returns the raw captured control/status bits.
func (d *Debugger) Status() uint8 {
	d.probe.ShiftIR(IRDbgCtrl, d.irWidth)
	return uint8(d.probe.ShiftDR(0, 8))
}

// FlashControllerPowered reports the flash controller power rail state —
// observable through the debug port, and one of the §3.2 findings (the
// controller powers down when idle).
func (d *Debugger) FlashControllerPowered() bool {
	return d.Status()&StatusFlashPowered != 0
}

// SetAddress loads the memory address register.
func (d *Debugger) SetAddress(addr uint32) {
	d.probe.ShiftIR(IRDbgAddr, d.irWidth)
	d.probe.ShiftDR(uint64(addr), 32)
}

// ReadWord returns the 32-bit word at addr.
func (d *Debugger) ReadWord(addr uint32) uint32 {
	d.SetAddress(addr)
	d.probe.ShiftIR(IRDbgData, d.irWidth)
	return uint32(d.probe.ShiftDR(0, 33))
}

// WriteWord stores a 32-bit word at addr.
func (d *Debugger) WriteWord(addr uint32, v uint32) {
	d.SetAddress(addr)
	d.probe.ShiftIR(IRDbgData, d.irWidth)
	d.probe.ShiftDR(uint64(v)|DataWriteBit, 33)
}

// ReadBlock returns n consecutive words starting at addr, using the data
// register's auto-increment (one address load, n data shifts).
func (d *Debugger) ReadBlock(addr uint32, n int) []uint32 {
	d.SetAddress(addr)
	d.probe.ShiftIR(IRDbgData, d.irWidth)
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(d.probe.ShiftDR(0, 33))
	}
	return out
}

// PC samples the selected core's program counter.
func (d *Debugger) PC(core int) uint32 {
	d.SelectCore(core)
	d.probe.ShiftIR(IRPCSample, d.irWidth)
	return uint32(d.probe.ShiftDR(0, 32))
}
