// Command teardown is the textual analog of the paper's Figure 6 photo: it
// opens a simulated drive, enumerates the board (controller, channels,
// flash packages with their READ ID / parameter-page identities), and then
// runs the full transparency work-up from internal/core.
//
// Usage:
//
//	teardown [-model MX500|EVO840|Vertex2|S64|S120|mqsim-base] [-report]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ssdtp/internal/core"
	"ssdtp/internal/nand"
	"ssdtp/internal/sigtrace"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

func main() {
	model := flag.String("model", "MX500", "device model: "+strings.Join(ssd.ModelNames(), "|"))
	report := flag.Bool("report", true, "run the full transparency work-up after the inventory")
	flag.Parse()

	cfg, err := ssd.Model(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	eng := sim.NewEngine()
	dev := ssd.NewDevice(eng, cfg)

	fmt.Printf("board inventory: %s (%d MB visible)\n", dev.Name(), dev.Size()>>20)
	fmt.Printf("  channels: %d, chips/channel: %d\n\n", dev.Array().Channels(), dev.Array().ChipsPerChannel())

	// Capture the power-on enumeration with probes attached — the chips
	// identify themselves.
	analyzers := make([]*sigtrace.Analyzer, dev.Array().Channels())
	for ch := range analyzers {
		analyzers[ch] = sigtrace.Attach(dev.Array().Bus(ch))
		analyzers[ch].Arm()
	}
	booted := false
	dev.Boot(func() { booted = true })
	eng.RunWhile(func() bool { return !booted })
	for ch, an := range analyzers {
		an.Stop()
		for _, op := range sigtrace.Decode(an.Events()) {
			if op.Kind != sigtrace.OpReadParam {
				continue
			}
			if p, ok := nand.ParseParameterPage(op.Data); ok && p.CRCOK {
				fmt.Printf("  ch%d/ce%d: %s %s — %d B pages, %d pages/block, %d blocks/LUN, %d LUNs\n",
					ch, op.Chip, p.Manufacturer, p.Model,
					p.PageBytes, p.PagesPerBlock, p.BlocksPerLUN, p.LUNs)
			}
		}
		an.Detach()
	}

	if *report {
		fmt.Println()
		fmt.Print(core.FullReport(dev).Render())
	}
}
