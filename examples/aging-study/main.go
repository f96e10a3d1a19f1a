// Aging-study: reproduce one cell of Figure 1 interactively — age an
// update-in-place and a log-structured file system on the same SSD model
// and compare fileserver throughput.
package main

import (
	"fmt"

	"ssdtp/internal/fsim"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

func run(model func() ssd.Config, kind string, prof fsim.AgingProfile) fsim.FileserverResult {
	dev := ssd.NewDevice(sim.NewEngine(), model())
	disk := fsim.NewSSDDisk(dev)
	var fs fsim.FS
	if kind == "extfs" {
		fs = fsim.NewExtFS(disk)
	} else {
		fs = fsim.NewLogFS(disk)
	}
	st := fsim.Age(fs, prof, 7)
	res := fsim.Fileserver(fs, dev.Engine(), 600, 70)
	if e, ok := fs.(*fsim.ExtFS); ok {
		fmt.Printf("  %s aged %s: %d aging ops, util %.0f%%, frag %.2f extents/file\n",
			kind, prof, st.Ops, st.Utilization*100, e.FragmentationScore())
	} else {
		fmt.Printf("  %s aged %s: %d aging ops, util %.0f%%\n", kind, prof, st.Ops, st.Utilization*100)
	}
	return res
}

func main() {
	for _, prof := range []fsim.AgingProfile{fsim.AgeU, fsim.AgeA} {
		fmt.Printf("S64, aging profile %s:\n", prof)
		ext := run(ssd.S64, "extfs", prof)
		log := run(ssd.S64, "logfs", prof)
		fmt.Printf("  fileserver: extfs %.0f ops/s, logfs %.0f ops/s -> ratio %.2fx\n\n",
			ext.OpsPerSecond(), log.OpsPerSecond(), log.OpsPerSecond()/ext.OpsPerSecond())
	}
	fmt.Println("run cmd/reproduce -run fig1 for the full device x aging matrix;")
	fmt.Println("the ratio's variability across cells is Figure 1's argument.")
}
