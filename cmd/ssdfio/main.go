// Command ssdfio runs fio-style synthetic workloads against simulated SSD
// models and prints latency/throughput summaries plus the device's
// S.M.A.R.T. view — the harness behind the paper's black-box measurements.
//
// Usage:
//
//	ssdfio -model MX500 -pattern uniform -size 4096 -qd 4 -ms 500 [-smart]
//	       [-trace FILE] [-trace-perfetto FILE] [-timeline FILE] [-telemetry FILE]
//	       [-metrics FILE] [-http ADDR]
//
// With -fleet N the same workload flags configure a multi-tenant tier
// instead: N drives of the chosen model behind a placement layer
// (-placement stripe|hash, -stripe-kb), shared by -tenants copies of the
// workload with distinct seeds, reporting per-tenant tail percentiles and GC
// blast radius:
//
//	ssdfio -fleet 64 -tenants 4 -placement hash -model mqsim-base -ms 200
//
// The observability flags are reproduce's, with one meaning (see package
// cliutil): the run is one traced cell, labelled with the model in
// single-device mode and fleet/<placement>/<N>d in fleet mode, and its
// prefill stays out of every export. -telemetry FILE writes the
// transparency log page as JSONL, sampled every -telemetry-ms (default 1),
// and -timeline FILE the same rows as CSV (columns cell,t_ns then the JSONL
// fields), sampled every -timeline-ms (default 10); either interval must be
// at least 1 ms when its export is requested. The log-page CSV is the run's
// one time series. -http serves the finished run's rows at /telemetry.
//
// All output-file flags are opened and validated before the simulation
// starts, as are the sampling intervals and the workload's shape (-size
// a positive multiple of the sector, -qd at least 1, -ms positive, -read
// within 0..1, -interval-us not negative, -fleet within the tier-size cap,
// -stripe-kb a positive multiple of the sector in fleet mode). A -size
// larger than the device, or in fleet mode than a tenant volume, is
// rejected once the model is built, before any prefill. Write failures are
// reported with the flag and path they belong to. A -prefill pass that
// completes fewer requests than it issues is an error (exit 1) naming the
// model and both counts, not a silently part-filled drive.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ssdtp/internal/cliutil"
	"ssdtp/internal/fleet"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

func main() {
	model := flag.String("model", "MX500", "device model: "+strings.Join(ssd.ModelNames(), "|"))
	pattern := flag.String("pattern", "uniform", "access pattern: seq|uniform|hotspot")
	size := flag.Int("size", 4096, "request size in bytes")
	qd := flag.Int("qd", 1, "queue depth (closed loop)")
	intervalUS := flag.Int64("interval-us", 0, "open-loop issue interval in µs (overrides -qd)")
	ms := flag.Int64("ms", 500, "run duration in simulated milliseconds")
	readFrac := flag.Float64("read", 0, "read fraction 0..1")
	seed := flag.Int64("seed", 1, "workload seed")
	showSMART := flag.Bool("smart", false, "print S.M.A.R.T. attributes after the run")
	prefill := flag.Bool("prefill", false, "sequentially prefill 85% of the device first")
	replayFile := flag.String("replay", "", "replay a text block trace (`W off len` / `R off len` / `T off len` / `F` per line) instead of a synthetic pattern")
	obsFlags := cliutil.RegisterObs(flag.CommandLine)
	fleetN := flag.Int("fleet", 0, "simulate a tier of N drives behind a placement layer instead of a single device")
	tenants := flag.Int("tenants", 4, "fleet mode: tenants sharing the tier, each running the flag-configured workload")
	placement := flag.String("placement", "stripe", "fleet mode: placement policy: stripe|hash")
	stripeKB := flag.Int64("stripe-kb", 256, "fleet mode: placement stripe size in KiB")
	flag.Parse()

	cfg, err := ssd.Model(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	wf := workloadFlags{
		size: *size, sector: cfg.FTL.SectorSize, qd: *qd, ms: *ms, readFrac: *readFrac,
		intervalUS: *intervalUS, fleet: *fleetN, stripeKB: *stripeKB,
	}
	if name, err := wf.check(); err != nil {
		cliutil.Failf(name, "%v", err)
	}
	var pat workload.Pattern
	switch *pattern {
	case "seq":
		pat = workload.Sequential
	case "uniform":
		pat = workload.Uniform
	case "hotspot":
		pat = workload.Hotspot
	default:
		fmt.Fprintf(os.Stderr, "unknown pattern %q\n", *pattern)
		os.Exit(2)
	}
	if *fleetN > 0 && *replayFile != "" {
		fmt.Fprintln(os.Stderr, "-replay is not supported in fleet mode")
		os.Exit(2)
	}
	// Open every requested output before the simulation starts: a bad path
	// fails here, flag-attributed, not after the run has burned its CPU time.
	// In fleet mode /progress carries the tier's COW image residency,
	// atomically published by runFleet at safe points (never read from
	// in-flight simulation state). Single-device runs report null.
	col := obsFlags.Start(func() any {
		if m := fleetMemLive.Load(); m != nil {
			return struct {
				FleetMem *fleet.MemReport `json:"fleet_mem"`
			}{m}
		}
		return nil
	})

	if *fleetN > 0 {
		runFleet(cfg, col, fleetOpts{
			drives: *fleetN, tenants: *tenants, policy: *placement, stripeKB: *stripeKB,
			pattern: pat, size: *size, qd: *qd, intervalUS: *intervalUS,
			readFrac: *readFrac, seed: *seed, ms: *ms, prefill: *prefill,
			showSMART: *showSMART,
		})
		obsFlags.Finish()
		return
	}

	// The run is the Collector's only cell. The device binds its log page to
	// the tracer's page recorder, whose engine hook is gated on the tracer,
	// so the prefill below (suspended) stays out of the stream.
	tr := col.Cell(*model)
	cfg.Trace = tr
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	if *replayFile == "" {
		if err := checkFits(*size, "device", dev.Size()); err != nil {
			cliutil.Failf("size", "%v", err)
		}
	}

	if *prefill {
		// The prefill is priming, not the measured workload; keep it out of
		// the trace so the span stream covers only what the summary reports.
		tr.Suspend()
		if err := prefillDevice(dev); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr.Resume()
	}

	if *replayFile != "" {
		res, err := replay(dev, *replayFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res)
		if res.SkippedOps > 0 {
			fmt.Fprintf(os.Stderr, "(skipped %d unplayable trace ops)\n", res.SkippedOps)
		}
		fmt.Printf("throughput: %.1f MB/s over %s simulated\n", res.ThroughputMBps(), fmtMS(res.Duration))
	} else {
		res := workload.Run(dev, workload.Spec{
			Name:         fmt.Sprintf("%s-%s", *model, *pattern),
			Pattern:      pat,
			RequestBytes: *size,
			QueueDepth:   *qd,
			Interval:     sim.Time(*intervalUS) * sim.Microsecond,
			ReadFrac:     *readFrac,
			Seed:         *seed,
		}, workload.Options{Duration: sim.Time(*ms) * sim.Millisecond})
		fmt.Println(res)
		fmt.Printf("throughput: %.1f MB/s over %s simulated\n",
			res.ThroughputMBps(), fmtMS(res.Duration))
		c := dev.FTL().Counters()
		fmt.Printf("flash: %d data, %d GC, %d map, %d parity pages; %d erases; cache hits %d\n",
			c.DataPagesProgrammed, c.GCPagesProgrammed, c.MapPagesProgrammed,
			c.ParityPagesProgrammed, c.Erases, c.CacheHits)
	}
	if *showSMART {
		fmt.Print(dev.SMART().String())
	}
	dev.PublishMetrics(tr)
	col.MarkDone(*model)
	obsFlags.Finish()
}

// prefillTarget is what a prefill pass needs of a drive: a workload target
// that names its model.
type prefillTarget interface {
	workload.Target
	Name() string
}

// prefillDevice sequentially writes 85% of dev in 64 KiB requests, the
// priming pass of both modes. It fails, naming the model and the completed
// and issued request counts, when the pass completes fewer requests than it
// issues: a partly filled drive would otherwise be measured, and in fleet
// mode cloned to every drive, as a prefilled one.
func prefillDevice(dev prefillTarget) error {
	const req = 65536
	fill := dev.Size() * 85 / 100 / req * req
	res := workload.Run(dev, workload.Spec{
		Name: "prefill", Pattern: workload.Sequential, RequestBytes: req, Length: fill,
	}, workload.Options{MaxRequests: fill / req})
	if res.Requests != fill/req {
		return fmt.Errorf("%s prefill completed %d of %d requests", dev.Name(), res.Requests, fill/req)
	}
	return nil
}

// replay plays the block trace in path against dev.
func replay(dev *ssd.Device, path string) (workload.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.Result{}, err
	}
	ops, err := workload.ParseTrace(f)
	_ = f.Close()
	if err != nil {
		return workload.Result{}, err
	}
	return workload.Replay(dev, ops)
}

func fmtMS(t sim.Time) string {
	return fmt.Sprintf("%.1fms", float64(t)/float64(sim.Millisecond))
}
