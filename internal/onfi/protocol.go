// Package onfi drives nand.Chips over a shared channel bus using the ONFI
// 2.x command protocol, accounting for command/address/data cycle time and
// die-internal array time in simulated nanoseconds.
//
// The bus emits BusEvents — command cycles, address cycles, data bursts,
// busy/ready transitions — to registered Observers. The sigtrace package
// expands those events into pin-level waveforms, which is how this
// repository reproduces the paper's hardware-probe methodology (§3.1):
// nothing in the analysis chain sees anything an electrical probe on the
// package pinout would not see.
package onfi

// ONFI 2.x opcodes used by this model.
const (
	CmdReadSetup      byte = 0x00 // first cycle of page read
	CmdReadConfirm    byte = 0x30 // second cycle of page read
	CmdProgramSetup   byte = 0x80 // first cycle of page program
	CmdProgramConfirm byte = 0x10
	CmdProgramPlane   byte = 0x11 // multi-plane interleave confirm
	CmdEraseSetup     byte = 0x60
	CmdEraseConfirm   byte = 0xD0
	CmdReadStatus     byte = 0x70
	CmdReadID         byte = 0x90
	CmdReadParamPage  byte = 0xEC
	CmdReset          byte = 0xFF
)

// Address cycle counts per ONFI 2.x: 2 column bytes + 3 row bytes for page
// operations; erase sends only the 3 row bytes.
const (
	ColumnAddrCycles = 2
	RowAddrCycles    = 3
	PageAddrCycles   = ColumnAddrCycles + RowAddrCycles
)

// RowBytes splits a row address into its 3 ONFI address-cycle bytes,
// little-endian.
func RowBytes(row uint32) [RowAddrCycles]byte {
	return [RowAddrCycles]byte{byte(row), byte(row >> 8), byte(row >> 16)}
}

// RowFromBytes reassembles a row address from its address-cycle bytes.
func RowFromBytes(b [RowAddrCycles]byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16
}
