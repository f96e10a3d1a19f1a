// Quickstart: build a simulated Crucial MX500, do some I/O, and look at the
// device the way a host can — completion latencies and S.M.A.R.T. counters.
package main

import (
	"fmt"

	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

func main() {
	// Every simulation hangs off one discrete-event engine.
	eng := sim.NewEngine()
	dev := ssd.NewDevice(eng, ssd.MX500())
	fmt.Printf("device: %s, %d MB logical, %d B sectors\n",
		dev.Name(), dev.Size()>>20, dev.SectorSize())

	// Write 1 MB sequentially, asynchronously; the callback fires in
	// simulated time.
	var writeDone sim.Time
	for off := int64(0); off < 1<<20; off += 65536 {
		if err := dev.WriteAsync(off, nil, 65536, func() { writeDone = eng.Now() }); err != nil {
			panic(err)
		}
	}
	if err := dev.FlushAsync(nil); err != nil {
		panic(err)
	}
	eng.Run()
	fmt.Printf("1 MB written and flushed by t=%.2f ms\n",
		float64(writeDone)/float64(sim.Millisecond))

	// Read it back and measure one request's latency.
	start := eng.Now()
	var lat sim.Time
	if err := dev.ReadAsync(0, nil, 65536, func() { lat = eng.Now() - start }); err != nil {
		panic(err)
	}
	eng.Run()
	fmt.Printf("64 KB read latency: %d µs\n", lat/sim.Microsecond)

	// The host-visible counter surface (what §2.2 works from):
	fmt.Println("\nS.M.A.R.T.:")
	fmt.Print(dev.SMART().String())

	// And the ground truth a black box cannot see:
	c := dev.FTL().Counters()
	fmt.Printf("\nground truth: %d data pages, %d parity pages, %d map pages programmed\n",
		c.DataPagesProgrammed, c.ParityPagesProgrammed, c.MapPagesProgrammed)
}
