// Command jtagprobe attaches a bit-banged JTAG probe to the simulated
// Samsung 840 EVO, performs the §3.2 exploration, and prints the recovered
// internals — the repository's Figure 6.
//
// Usage:
//
//	jtagprobe [-dump addr count] [-pc]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"ssdtp/internal/cliutil"
	"ssdtp/internal/core"
	"ssdtp/internal/firmware"
	"ssdtp/internal/jtag"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

func main() {
	dump := flag.String("dump", "", "hex address to dump instead of exploring (e.g. 0x20000000)")
	count := flag.Int("count", 16, "words to dump")
	pcSample := flag.Bool("pc", false, "sample per-core PCs under even/odd traffic")
	flag.Parse()

	dev := ssd.NewDevice(sim.NewEngine(), ssd.EVO840())
	fw := firmware.New(dev)
	probe := jtag.NewProbe(jtag.NewPins(jtag.NewTAP(fw)))
	probe.Reset()
	dbg := jtag.NewDebugger(probe, fw.IRWidth())
	traffic := core.FirmwareTraffic{FW: fw}

	if *dump != "" {
		addr, err := strconv.ParseUint(*dump, 0, 32)
		if err != nil {
			cliutil.Failf("dump", "bad address %q: %v", *dump, err)
		}
		if err := checkDump(addr, *count); err != nil {
			cliutil.Failf("count", "%v", err)
		}
		words := dbg.ReadBlock(uint32(addr), *count)
		for i, w := range words {
			if i%4 == 0 {
				fmt.Printf("\n%08x:", uint32(addr)+uint32(i*4))
			}
			fmt.Printf(" %08x", w)
		}
		fmt.Println()
		return
	}

	if *pcSample {
		fmt.Println("idle PCs:")
		for c := 0; c < firmware.Cores; c++ {
			fmt.Printf("  core%d: %#x\n", c, dbg.PC(c))
		}
		fmt.Println("under even-LBA traffic:")
		for i := int64(0); i < 8; i++ {
			traffic.Touch(i * 2)
		}
		for c := 0; c < firmware.Cores; c++ {
			fmt.Printf("  core%d: %#x\n", c, dbg.PC(c))
		}
		return
	}

	fmt.Printf("IDCODE: %#x\n", dbg.IDCode())
	fmt.Println("downloading and de-obfuscating firmware update file...")
	findings, err := core.ExploreEVO(dbg, fw.UpdateFile(), traffic)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(findings.Summary())
	fmt.Printf("(%d TCK edges driven)\n", probe.Edges())
}
