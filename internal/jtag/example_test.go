package jtag_test

import (
	"fmt"

	"ssdtp/internal/firmware"
	"ssdtp/internal/jtag"
)

func Example_bitBangedExploration() {
	// The §3.2 stack end to end: firmware target, TAP, GPIO pins, probe,
	// debugger.
	fw := firmware.New(nil)
	probe := jtag.NewProbe(jtag.NewPins(jtag.NewTAP(fw)))
	probe.Reset()
	dbg := jtag.NewDebugger(probe, fw.IRWidth())
	fmt.Printf("IDCODE %#x\n", dbg.IDCode())
	fmt.Printf("cores %d, channels %d\n",
		dbg.ReadWord(firmware.MMIOBase+firmware.RegCoreCount),
		dbg.ReadWord(firmware.MMIOBase+firmware.RegChannelCount))
	fmt.Printf("%d TCK edges driven\n", probe.Edges())
	// Output:
	// IDCODE 0x4ba00477
	// cores 3, channels 8
	// 243 TCK edges driven
}
