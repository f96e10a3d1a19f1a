// Command reproduce regenerates the paper's tables and figures on the
// simulated substrate and prints paper-vs-measured summaries.
//
// Grid-shaped experiments fan their cells out across -parallel workers
// (default: all CPUs). Tables on stdout are byte-identical for any
// -parallel value; progress lines and per-cell wall-clock timings go to
// stderr so redirected output stays clean.
//
// With -trace FILE the traced experiments (fig3, fleet, transparency, tabS3,
// tabS4) also emit a JSONL span stream, with -trace-perfetto FILE a Chrome
// trace-event JSON document loadable in Perfetto/chrome://tracing, with
// -telemetry FILE a JSONL stream of transparency log pages (the
// host-visible disclosure interface of DESIGN.md §14, sampled every
// -telemetry-ms), with -timeline FILE the same log page as CSV (columns
// cell,t_ns then the JSONL fields, sampled every -timeline-ms), and with
// -metrics FILE a Prometheus-style text dump of per-cell counters. Each
// traced cell records its log page once, at the greatest common divisor of
// the two intervals, and -telemetry and -timeline render the rows on their
// own grids, so both cover the same cells. All are timestamped with the
// simulated clock and ordered by cell label, so they too are byte-identical
// for any -parallel value.
//
// -http ADDR serves a live ops endpoint while the run is in flight:
// net/http/pprof and expvar, a /metrics snapshot of completed cells, a
// /progress JSON view with cells/sec throughput and ETA, and a /telemetry
// JSONL view of completed cells' transparency log pages.
//
// Expensive preconditioning (the fig3-family steady-state prefill, the aged
// file systems of fig1/tabS7) is built once per distinct image and cloned
// per cell via drive-state snapshots; -snapshot-cache=false rebuilds every
// cell from scratch instead. Output is byte-identical either way.
//
// The fleet experiment additionally shards its drives across -shard workers
// inside each cell (conservative-lookahead windows; see internal/fleet).
// Like -parallel, -shard never shows through in any output.
//
// Every output path (-trace, -trace-perfetto, -timeline, -metrics, the -csv
// directory) is opened and validated before any experiment runs, so a bad
// path fails in milliseconds rather than after a long -full regeneration;
// so is every sampling interval in use (-timeline-ms and -telemetry-ms must
// be positive) and every -run id (an unknown one is a flag error that lists
// the valid ids).
//
// Usage:
//
//	reproduce [-run all|ID,...] [-full] [-seed N] [-parallel N] [-shard N] [-quiet] [-trace FILE] [-trace-perfetto FILE] [-trace-cap N] [-timeline FILE] [-timeline-ms N] [-telemetry FILE] [-telemetry-ms N] [-metrics FILE] [-http ADDR] [-snapshot-cache=false]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"ssdtp/internal/cliutil"
	"ssdtp/internal/experiments"
	"ssdtp/internal/fleet"
	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids ("+strings.Join(experimentIDs, ",")+"), or all")
	full := flag.Bool("full", false, "full scale (slower, tighter statistics)")
	seed := flag.Int64("seed", 42, "experiment seed")
	csvDir := flag.String("csv", "", "also write plottable CSV series into this directory")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "experiment cells run concurrently (results are identical for any value)")
	shard := flag.Int("shard", runtime.GOMAXPROCS(0), "fleet-experiment drive shards advanced concurrently within a cell (results are identical for any value)")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress lines on stderr")
	traceFile := flag.String("trace", "", "write a JSONL span trace of the traced experiments to this file")
	perfettoFile := flag.String("trace-perfetto", "", "write a Chrome trace-event/Perfetto JSON trace of the traced experiments to this file")
	traceCap := flag.Int("trace-cap", 0, "per-cell trace record cap (0 = default 1<<20; negative = unbounded); drops are counted in ssdtp_trace_dropped_spans_total")
	timelineFile := flag.String("timeline", "", "write the transparency log page as CSV (cell,t_ns then the -telemetry fields) to this file")
	timelineMS := flag.Int64("timeline-ms", 10, "-timeline sampling interval in simulated milliseconds (must be positive)")
	telemetryFile := flag.String("telemetry", "", "write a JSONL stream of transparency log pages to this file")
	telemetryMS := flag.Int64("telemetry-ms", 1, "-telemetry and /telemetry sampling interval in simulated milliseconds (must be positive)")
	metricsFile := flag.String("metrics", "", "write a Prometheus-style text dump of per-cell metrics to this file")
	httpAddr := flag.String("http", "", "serve a live ops endpoint (pprof, expvar, /metrics, /progress) on this address, e.g. :6060")
	snapCache := flag.Bool("snapshot-cache", true, "build each distinct preconditioned drive/file-system image once and clone it per cell (results are identical either way)")
	flag.Parse()

	want, err := parseRun(*run)
	if err != nil {
		cliutil.Failf("run", "%v", err)
	}
	// Open and validate every output destination before any experiment runs:
	// a bad -metrics path must fail now, not after a multi-minute -full
	// regeneration (and with the flag it belongs to, not a bare OS error).
	// A non-positive interval would sample nothing and leave the requested
	// export empty; reject it before creating any file.
	if *timelineFile != "" {
		cliutil.MustInterval("timeline-ms", *timelineMS, 1)
	}
	if *telemetryFile != "" || *httpAddr != "" {
		cliutil.MustInterval("telemetry-ms", *telemetryMS, 1)
	}
	traceOut := cliutil.MustOpen("trace", *traceFile)
	perfettoOut := cliutil.MustOpen("trace-perfetto", *perfettoFile)
	timelineOut := cliutil.MustOpen("timeline", *timelineFile)
	telemetryOut := cliutil.MustOpen("telemetry", *telemetryFile)
	metricsOut := cliutil.MustOpen("metrics", *metricsFile)
	if err := cliutil.Dir("csv", *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	experiments.SetSnapshotCache(*snapCache)
	experiments.SetShard(*shard)

	tracker := runner.NewTracker()
	progress := func(ev runner.Event) {
		tracker.Observe(ev)
		switch ev.Kind {
		case runner.CellStart:
			fmt.Fprintf(os.Stderr, "[%3d/%d] %-40s ...\n", ev.Index+1, ev.Total, ev.Label)
		case runner.CellDone:
			fmt.Fprintf(os.Stderr, "[%3d/%d] %-40s %8.2fs%s\n", ev.Index+1, ev.Total, ev.Label,
				ev.Duration.Seconds(), tracker.Suffix())
		}
	}
	if *quiet {
		progress = tracker.Observe
	}
	experiments.SetPool(&runner.Pool{Workers: *parallel, Progress: progress})

	var col *obs.Collector
	if traceOut.Enabled() || perfettoOut.Enabled() || timelineOut.Enabled() || telemetryOut.Enabled() || metricsOut.Enabled() || *httpAddr != "" {
		col = obs.NewCollector()
		if *traceCap != 0 {
			col.SetRecordCap(*traceCap)
		}
		// Each traced cell samples its log page once, at the GCD of these
		// intervals; -timeline and -telemetry (and /telemetry) each render
		// the rows on their own grid.
		if timelineOut.Enabled() {
			col.SetTimeline(sim.Time(*timelineMS) * sim.Millisecond)
		}
		if telemetryOut.Enabled() || *httpAddr != "" {
			col.SetTelemetry(sim.Time(*telemetryMS) * sim.Millisecond)
		}
		experiments.SetObserver(col)
	}
	if *httpAddr != "" {
		// /progress reports run progress plus, once a fleet cell has
		// completed, the tier's COW image residency (atomically published;
		// never reads in-flight simulation state).
		addr, shutdown, err := obs.ServeOps(*httpAddr, col, func() any {
			s := tracker.Snapshot()
			if mem := experiments.FleetMemSnapshot(); mem != nil {
				return struct {
					runner.Snapshot
					FleetMemPolicy string          `json:"fleet_mem_policy"`
					FleetMem       fleet.MemReport `json:"fleet_mem"`
				}{s, mem.Policy, mem.Report}
			}
			return s
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "(ops endpoint on http://%s)\n", addr)
	}
	writeObs := func(o *cliutil.Out, write func(f *os.File) error) {
		if !o.Enabled() {
			return
		}
		if err := o.Finish(write); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "(wrote %s)\n", o.Path())
	}
	flushObs := func() {
		writeObs(traceOut, func(f *os.File) error { return col.WriteJSONL(f) })
		writeObs(perfettoOut, func(f *os.File) error { return col.WritePerfetto(f) })
		writeObs(timelineOut, func(f *os.File) error { return col.WriteTimelineCSV(f) })
		writeObs(telemetryOut, func(f *os.File) error { return col.WriteTelemetryJSONL(f) })
		writeObs(metricsOut, func(f *os.File) error { return col.WriteMetrics(f) })
	}

	writeCSV := func(name string, header string, rows func(w *os.File)) {
		if *csvDir == "" {
			return
		}
		f, path, err := cliutil.Create("csv", *csvDir, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, err := fmt.Fprintln(f, header); err != nil {
			fmt.Fprintf(os.Stderr, "-csv %s: %v\n", path, err)
			os.Exit(1)
		}
		rows(f)
		// Close errors are write errors deferred by the OS (e.g. a full
		// disk flushing buffered data) — a silently truncated CSV must not
		// look like success.
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "-csv %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("(wrote %s)\n", path)
	}

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	// Per-experiment wall-clock goes to stderr alongside the cell progress
	// lines, so long -full runs are observable without touching stdout.
	var curID string
	var curStart time.Time
	endSection := func() {
		if curID != "" {
			fmt.Fprintf(os.Stderr, "=== %s done in %.2fs\n", curID, time.Since(curStart).Seconds())
		}
		curID = ""
	}
	section := func(id, title string) bool {
		if !slices.Contains(experimentIDs, id) {
			panic("reproduce: section " + id + " is missing from experimentIDs")
		}
		if !want[id] {
			return false
		}
		endSection()
		curID, curStart = id, time.Now()
		fmt.Printf("\n=== %s: %s ===\n", id, title)
		return true
	}

	if section("fig1", "file systems age variably for different SSD models") {
		fmt.Print(experiments.Fig1Aging(scale, *seed).Table())
	}
	if section("fig2", "flash writes per OLTP transaction by compression scheme") {
		fmt.Print(experiments.Fig2Compression(scale, *seed).Table())
	}
	var fig3 experiments.Fig3Result
	if section("fig3", "99th-percentile random-write latency across FTLs") {
		fig3 = experiments.Fig3TailLatency(scale, *seed)
		fmt.Print(fig3.Table())
		fmt.Printf("\n--- tabS1: mean deltas (MQSim accuracy threshold is 18%%) ---\n")
		fmt.Print(experiments.TableS1MeanDelta(fig3).Table())
		writeCSV("fig3_tails.csv", "config,request_bytes,rank,latency_us", func(w *os.File) {
			for _, s := range fig3.Series {
				for i, v := range s.Tail {
					fmt.Fprintf(w, "%s,%d,%d,%d\n", s.Config, s.RequestBytes, i, v/1000)
				}
			}
		})
	}
	if section("fig4a", "host KB per NAND-page counter tick (MX500)") {
		fig4a := experiments.Fig4aNandPageSize(scale, *seed)
		fmt.Print(fig4a.Table())
		writeCSV("fig4a_pageunit.csv", "request_bytes,kb_per_nand_page", func(w *os.File) {
			for _, p := range fig4a.Points {
				fmt.Fprintf(w, "%d,%.3f\n", p.RequestBytes, p.BytesPerPage()/1024)
			}
		})
	}
	if section("fig4b", "WAF: separate vs mixed workloads (MX500)") {
		fmt.Print(experiments.Fig4bWAF(scale, *seed).Table())
	}
	if section("fig5", "signal diagram of a flash command (OCZ Vertex II)") {
		fmt.Print(experiments.Fig5SignalTrace(scale, *seed).Table())
	}
	if section("fleet", "fleet scale: per-tenant tails and GC blast radius by placement") {
		fl := experiments.FleetTail(scale, *seed)
		fmt.Print(fl.Table())
		fmt.Print(fl.TelemetryLines())
		fmt.Print(fl.MemLines())
		writeCSV("fleet_tenants.csv",
			"policy,tenant,drives,shared_drives,requests,p50_ns,p99_ns,p999_ns,tail_gc_share_ppm,blast_radius_ppm",
			func(w *os.File) {
				for _, ft := range fl.Tenants {
					r := ft.Report
					fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d\n",
						ft.Policy, r.Tenant, r.Drives, r.SharedDrives, r.Requests,
						r.P50, r.P99, r.P999, r.TailGCSharePPM, r.BlastPPM)
				}
			})
	}
	if section("transparency", "host-side forecasting from the disclosed telemetry log page") {
		tp := experiments.Transparency(scale, *seed)
		fmt.Print(tp.Table())
		writeCSV("transparency_scores.csv",
			"config,windows,cliffs,telemetry_tp,telemetry_fp,telemetry_fn,smart_tp,smart_fp,smart_fn",
			func(w *os.File) {
				for _, r := range tp.Rows {
					fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d\n",
						r.Config, r.Windows, r.Cliffs,
						r.Telemetry.TP, r.Telemetry.FP, r.Telemetry.FN,
						r.SMART.TP, r.SMART.FP, r.SMART.FN)
				}
			})
	}
	if section("tabS2", "probe-equipment study: decode fidelity vs sampling rate") {
		fmt.Print(experiments.TabS2ProbeRate(scale, *seed).Table())
	}
	if section("tabS3", "open-channel upper bound: read tails with a knowing host") {
		fmt.Print(experiments.TabS3OpenChannel(scale, *seed).Table())
	}
	if section("tabS4", "FTL design-space sweep: mean vs tail spread") {
		fmt.Print(experiments.TabS4DesignSweep(scale, *seed).Table())
	}
	if section("tabS5", "endurance: GC policy vs device lifetime under a wear limit") {
		fmt.Print(experiments.TabS5Endurance(scale, *seed).Table())
	}
	if section("tabS6", "multi-queue host interface: tenant isolation") {
		fmt.Print(experiments.TabS6Proportionality(scale, *seed).Table())
	}
	if section("tabS7", "figure 1 extended: the ratio depends on the workload too") {
		fmt.Print(experiments.TabS7Personalities(scale, *seed).Table())
	}
	if section("tabS8", "boot time: eager map reload vs on-demand chunks (§3.2's conjecture)") {
		fmt.Print(experiments.TabS8MountLatency(scale, *seed).Table())
	}
	if section("fig6", "JTAG exploration of the Samsung 840 EVO") {
		res := experiments.Fig6JTAG(scale, *seed)
		fmt.Print(res.Table())
		if !res.AllOK() {
			fmt.Fprintln(os.Stderr, "fig6: findings did not match planted ground truth")
			flushObs()
			os.Exit(1)
		}
	}
	endSection()
	flushObs()
}
