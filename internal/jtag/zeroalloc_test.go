package jtag

import "testing"

// A memory read and an IDCODE read through the full pin-level stack
// allocate nothing: scans run on the probe's one TAP and pins. CI runs this
// (-run 'ZeroAlloc', no -race) as a regression gate.
func TestProbeScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	ft, d := rig()
	ft.mem[0x100] = 0xCAFE
	if a := testing.AllocsPerRun(100, func() {
		d.ReadWord(0x100)
		d.IDCode()
	}); a != 0 {
		t.Errorf("ReadWord + IDCode: %v allocs, want 0", a)
	}
}
