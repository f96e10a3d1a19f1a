// Command sigtrace attaches a simulated logic analyzer to a flash channel,
// drives a workload, and prints the captured signal diagram and decoded
// operations — the §3.1 hardware-probe methodology end to end.
//
// Usage:
//
//	sigtrace -model Vertex2 -channel 0 -workload format [-width 96] [-ops]
package main

import (
	"flag"
	"fmt"
	"os"

	"ssdtp/internal/cliutil"
	"ssdtp/internal/sigtrace"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

func main() {
	model := flag.String("model", "Vertex2", "device model: MX500|EVO840|Vertex2")
	channel := flag.Int("channel", 0, "channel to probe")
	wl := flag.String("workload", "format", "workload: format|seq|rand")
	width := flag.Int("width", 96, fmt.Sprintf("waveform columns (at least %d)", sigtrace.MinWaveformWidth))
	showOps := flag.Bool("ops", false, "print every decoded operation")
	vcdOut := flag.String("vcd", "", "also write the capture as a VCD file")
	flag.Parse()
	if err := checkWidth(*width); err != nil {
		cliutil.Failf("width", "%v", err)
	}

	var cfg ssd.Config
	switch *model {
	case "MX500":
		cfg = ssd.MX500()
	case "EVO840":
		cfg = ssd.EVO840()
	case "Vertex2":
		cfg = ssd.Vertex2()
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	if *channel < 0 || *channel >= dev.Array().Channels() {
		fmt.Fprintf(os.Stderr, "channel %d out of range (device has %d)\n", *channel, dev.Array().Channels())
		os.Exit(2)
	}
	an := sigtrace.Attach(dev.Array().Bus(*channel))
	an.Arm()

	switch *wl {
	case "seq":
		workload.Run(dev, workload.Spec{Name: "seq", Pattern: workload.Sequential, RequestBytes: 65536},
			workload.Options{MaxRequests: 64})
	case "rand":
		workload.Run(dev, workload.Spec{Name: "rand", Pattern: workload.Uniform, RequestBytes: 4096, Seed: 1},
			workload.Options{MaxRequests: 256})
	case "format":
		// NTFS-format-like metadata writes.
		for _, w := range []struct{ off, n int64 }{
			{0, 8192}, {dev.Size() / 8 / 4096 * 4096, 262144}, {dev.Size() / 2 / 4096 * 4096, 65536},
		} {
			done := false
			if err := dev.WriteAsync(w.off, nil, w.n, func() { done = true }); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			dev.Engine().RunWhile(func() bool { return !done })
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}
	flushed := false
	dev.FlushAsync(func() { flushed = true })
	dev.Engine().RunWhile(func() bool { return !flushed })
	an.Stop()

	evs := an.Events()
	if len(evs) == 0 {
		fmt.Println("no activity captured on this channel")
		return
	}
	if *vcdOut != "" {
		f, err := os.Create(*vcdOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := sigtrace.WriteVCD(f, evs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		_ = f.Close()
		fmt.Printf("wrote %s\n", *vcdOut)
	}
	bursts := sigtrace.Bursts(evs, 100*sim.Microsecond)
	fmt.Printf("captured %d events in %d bursts on %s channel %d\n\n",
		len(evs), len(bursts), dev.Name(), *channel)
	first := bursts[0]
	fmt.Print(sigtrace.RenderWaveform(evs, first.Start-5*sim.Microsecond, first.End+40*sim.Microsecond, *width))
	ops := sigtrace.Decode(evs)
	fmt.Printf("\ndecoded %d operations", len(ops))
	if *showOps {
		fmt.Println(":")
		for _, op := range ops {
			fmt.Println(" ", op)
		}
	} else {
		counts := map[sigtrace.OpKind]int{}
		for _, op := range ops {
			counts[op.Kind]++
		}
		fmt.Printf(" (%d programs, %d reads, %d erases)\n",
			counts[sigtrace.OpProgram], counts[sigtrace.OpRead], counts[sigtrace.OpErase])
	}
}
