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
// blast radius. -shard N advances independent drives concurrently inside
// conservative lookahead windows (see internal/fleet); every output is
// byte-identical for any value:
//
//	ssdfio -fleet 64 -tenants 4 -placement hash -model mqsim-base -ms 200 [-shard N]
//
// -timeline FILE writes the transparency log page as CSV (columns cell,t_ns
// then the -telemetry JSONL fields), sampled every -timeline-ms (default
// 10 ms when the flag is 0).
//
// All output-file flags are opened and validated before the simulation
// starts, as are the sampling intervals (-timeline-ms must not be negative,
// -telemetry-ms must be positive when used) and the workload's shape (-size
// a positive multiple of the sector, -ms positive, -read within 0..1,
// -interval-us not negative, -stripe-kb a positive multiple of the sector in
// fleet mode). Write failures are reported with the flag and path they
// belong to.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"ssdtp/internal/cliutil"
	"ssdtp/internal/fleet"
	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/telemetry"
	"ssdtp/internal/workload"
)

func main() {
	model := flag.String("model", "MX500", "device model: MX500|EVO840|Vertex2|S64|S120|mqsim-base")
	pattern := flag.String("pattern", "uniform", "access pattern: seq|uniform|hotspot")
	size := flag.Int("size", 4096, "request size in bytes")
	qd := flag.Int("qd", 1, "queue depth (closed loop)")
	intervalUS := flag.Int64("interval-us", 0, "open-loop issue interval in µs (overrides -qd)")
	ms := flag.Int64("ms", 500, "run duration in simulated milliseconds")
	readFrac := flag.Float64("read", 0, "read fraction 0..1")
	seed := flag.Int64("seed", 1, "workload seed")
	showSMART := flag.Bool("smart", false, "print S.M.A.R.T. attributes after the run")
	timelineMS := flag.Int64("timeline-ms", 0, "print a completions-per-bucket timeline with this bucket width in ms, and sample -timeline at it (0 = no buckets, 10 ms CSV sampling)")
	prefill := flag.Bool("prefill", false, "sequentially prefill 85% of the device first")
	replayFile := flag.String("replay", "", "replay a text block trace (`W off len` / `R off len` / `T off len` / `F` per line) instead of a synthetic pattern")
	traceFile := flag.String("trace", "", "write a JSONL span trace of the run (prefill excluded) to this file")
	perfettoFile := flag.String("trace-perfetto", "", "write a Chrome trace-event/Perfetto JSON trace of the run to this file")
	traceCap := flag.Int("trace-cap", 0, "trace record cap (0 = default 1<<20; negative = unbounded); drops are counted in ssdtp_trace_dropped_spans_total")
	timelineFile := flag.String("timeline", "", "write the transparency log page as CSV (cell,t_ns then the -telemetry fields, sampled every -timeline-ms) to this file")
	telemetryFile := flag.String("telemetry", "", "write a JSONL stream of transparency log pages (sampled every -telemetry-ms) to this file")
	telemetryMS := flag.Int64("telemetry-ms", 1, "-telemetry and /telemetry sampling interval in simulated milliseconds (must be positive)")
	metricsFile := flag.String("metrics", "", "write a Prometheus-style text dump of device metrics to this file")
	httpAddr := flag.String("http", "", "serve a live ops endpoint (pprof, expvar, /metrics, /progress) on this address, e.g. :6060")
	fleetN := flag.Int("fleet", 0, "simulate a tier of N drives behind a placement layer instead of a single device")
	drivesN := flag.Int("drives", 0, "fleet tier size; alias for -fleet N (the two must agree if both are given)")
	tenants := flag.Int("tenants", 4, "fleet mode: tenants sharing the tier, each running the flag-configured workload")
	placement := flag.String("placement", "stripe", "fleet mode: placement policy: stripe|hash")
	stripeKB := flag.Int64("stripe-kb", 256, "fleet mode: placement stripe size in KiB")
	shard := flag.Int("shard", runtime.GOMAXPROCS(0), "fleet mode: drive shards advanced concurrently (results are identical for any value)")
	flag.Parse()

	cfg, err := modelByName(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Open every requested output before the simulation starts: a bad path
	// fails here, flag-attributed, not after the run has burned its CPU time.
	// Reject intervals that would sample nothing before creating any file
	// (-timeline-ms 0 selects the CSV's 10 ms default).
	wf := workloadFlags{
		size: *size, sector: cfg.FTL.SectorSize, ms: *ms, readFrac: *readFrac,
		intervalUS: *intervalUS, fleet: *fleetN > 0 || *drivesN > 0, stripeKB: *stripeKB,
	}
	if name, err := wf.check(); err != nil {
		cliutil.Failf(name, "%v", err)
	}
	cliutil.MustInterval("timeline-ms", *timelineMS, 0)
	if *telemetryFile != "" || *httpAddr != "" {
		cliutil.MustInterval("telemetry-ms", *telemetryMS, 1)
	}
	traceOut := cliutil.MustOpen("trace", *traceFile)
	perfettoOut := cliutil.MustOpen("trace-perfetto", *perfettoFile)
	timelineOut := cliutil.MustOpen("timeline", *timelineFile)
	telemetryOut := cliutil.MustOpen("telemetry", *telemetryFile)
	metricsOut := cliutil.MustOpen("metrics", *metricsFile)
	var tr *obs.Tracer
	var col *obs.Collector
	if traceOut.Enabled() || perfettoOut.Enabled() || timelineOut.Enabled() || telemetryOut.Enabled() || metricsOut.Enabled() || *httpAddr != "" {
		col = obs.NewCollector()
		if *traceCap != 0 {
			col.SetRecordCap(*traceCap)
		}
		if timelineOut.Enabled() {
			itv := *timelineMS
			if itv <= 0 {
				itv = 10
			}
			col.SetTimeline(sim.Time(itv) * sim.Millisecond)
		}
	}
	// Log-page sampling rides the tracer's aux window, so the telemetry set
	// exists only when a collector does (the condition above covers both).
	var ts *telemetry.Set
	if telemetryOut.Enabled() || *httpAddr != "" {
		ts = telemetry.NewSet(sim.Time(*telemetryMS) * sim.Millisecond)
	}
	if *httpAddr != "" {
		// In fleet mode /progress carries the tier's COW image residency,
		// atomically published by runFleet at safe points (never read from
		// in-flight simulation state). Single-device runs report null.
		addr, shutdown, err := obs.ServeOps(*httpAddr, col, func() any {
			if m := fleetMemLive.Load(); m != nil {
				return struct {
					FleetMem *fleet.MemReport `json:"fleet_mem"`
				}{m}
			}
			return nil
		}, obs.View{Path: "/telemetry", Write: func(w io.Writer) error {
			return ts.WriteJSONLDone(w)
		}})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "(ops endpoint on http://%s)\n", addr)
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

	// -drives and -fleet both size the tier; validate before any simulation
	// work, with the error attributed to the flag that caused it.
	nDrives := *fleetN
	if *drivesN != 0 {
		if *fleetN > 0 && *fleetN != *drivesN {
			cliutil.Failf("drives", "%d conflicts with -fleet %d (give one, or the same value)", *drivesN, *fleetN)
		}
		nDrives = *drivesN
	}
	if nDrives < 0 || nDrives > maxFleetDrives {
		cliutil.Failf("drives", "tier size %d out of range [1, %d] (see README: fleet scaling envelope)", nDrives, maxFleetDrives)
	}

	if nDrives > 0 {
		if *replayFile != "" {
			fmt.Fprintln(os.Stderr, "-replay is not supported in fleet mode")
			os.Exit(2)
		}
		runFleet(cfg, fleetOpts{
			drives: nDrives, tenants: *tenants, policy: *placement, stripeKB: *stripeKB,
			shard:   *shard,
			pattern: pat, size: *size, qd: *qd, intervalUS: *intervalUS,
			readFrac: *readFrac, seed: *seed, ms: *ms, prefill: *prefill,
			col: col, ts: ts, traceOut: traceOut, perfettoOut: perfettoOut,
			timelineOut: timelineOut, telemetryOut: telemetryOut,
			metricsOut: metricsOut, showSMART: *showSMART,
		})
		return
	}

	if col != nil {
		tr = col.Cell(*model)
		cfg.Trace = tr
	}
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	// Stream the transparency log page; the window's engine hook is gated on
	// the tracer, so the prefill below (suspended) stays out of the stream.
	dev.AttachTelemetry(ts.Cell(*model))

	if *prefill {
		// The prefill is priming, not the measured workload; keep it out of
		// the trace so the span stream covers only what the summary reports.
		tr.Suspend()
		fill := dev.Size() * 85 / 100 / 65536 * 65536
		workload.Run(dev, workload.Spec{
			Name: "prefill", Pattern: workload.Sequential, RequestBytes: 65536, Length: fill,
		}, workload.Options{MaxRequests: fill / 65536})
		tr.Resume()
	}

	flushObs := func() {
		dev.PublishMetrics(tr)
		col.MarkDone(*model)
		ts.MarkDone(*model)
		writeObsFile(traceOut, func(f *os.File) error { return tr.WriteJSONL(f) })
		writeObsFile(perfettoOut, func(f *os.File) error { return tr.WritePerfetto(f) })
		writeObsFile(timelineOut, func(f *os.File) error { return tr.WriteTimelineCSV(f) })
		writeObsFile(telemetryOut, func(f *os.File) error { return ts.WriteJSONL(f) })
		writeObsFile(metricsOut, func(f *os.File) error { return tr.WriteMetrics(f) })
	}

	if *replayFile != "" {
		f, err := os.Open(*replayFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ops, err := workload.ParseTrace(f)
		_ = f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := workload.Replay(dev, ops)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res)
		if res.SkippedOps > 0 {
			fmt.Fprintf(os.Stderr, "(skipped %d unplayable trace ops)\n", res.SkippedOps)
		}
		fmt.Printf("throughput: %.1f MB/s over %s simulated\n", res.ThroughputMBps(), fmtMS(res.Duration))
		if *showSMART {
			fmt.Print(dev.SMART().String())
		}
		flushObs()
		return
	}

	res := workload.Run(dev, workload.Spec{
		Name:         fmt.Sprintf("%s-%s", *model, *pattern),
		Pattern:      pat,
		RequestBytes: *size,
		QueueDepth:   *qd,
		Interval:     sim.Time(*intervalUS) * sim.Microsecond,
		ReadFrac:     *readFrac,
		Seed:         *seed,
	}, workload.Options{
		Duration:         sim.Time(*ms) * sim.Millisecond,
		TimelineInterval: sim.Time(*timelineMS) * sim.Millisecond,
	})

	fmt.Println(res)
	fmt.Printf("throughput: %.1f MB/s over %s simulated\n",
		res.ThroughputMBps(), fmtMS(res.Duration))
	c := dev.FTL().Counters()
	fmt.Printf("flash: %d data, %d GC, %d map, %d parity pages; %d erases; cache hits %d\n",
		c.DataPagesProgrammed, c.GCPagesProgrammed, c.MapPagesProgrammed,
		c.ParityPagesProgrammed, c.Erases, c.CacheHits)
	if *timelineMS > 0 {
		fmt.Printf("timeline (%dms buckets):", *timelineMS)
		for _, n := range res.Timeline {
			fmt.Printf(" %d", n)
		}
		fmt.Println()
	}
	if *showSMART {
		fmt.Print(dev.SMART().String())
	}
	flushObs()
}

func modelByName(name string) (ssd.Config, error) {
	switch name {
	case "MX500":
		return ssd.MX500(), nil
	case "EVO840":
		return ssd.EVO840(), nil
	case "Vertex2":
		return ssd.Vertex2(), nil
	case "S64":
		return ssd.S64(), nil
	case "S120":
		return ssd.S120(), nil
	case "mqsim-base":
		return ssd.MQSimBase(), nil
	default:
		return ssd.Config{}, fmt.Errorf("unknown model %q", name)
	}
}

func fmtMS(t sim.Time) string {
	return fmt.Sprintf("%.1fms", float64(t)/float64(sim.Millisecond))
}
