package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
)

// Obs is the observability front end of the simulating commands: it
// registers the shared flag set (see the package comment), validates and
// opens it before any simulation runs, and writes the exports at the end.
type Obs struct {
	trace, perfetto, timeline, telemetry, metrics export

	traceCap                int
	timelineMS, telemetryMS int64
	http                    string

	col      *obs.Collector
	shutdown func()
}

// export is one file export of the Collector, addressed by its flag.
type export struct {
	flag, usage string
	write       func(*obs.Collector, io.Writer) error
	path        string
	out         *Out
}

// RegisterObs registers the shared observability flags on fs.
func RegisterObs(fs *flag.FlagSet) *Obs {
	o := &Obs{
		trace: export{flag: "trace", write: (*obs.Collector).WriteJSONL,
			usage: "write a JSONL span trace of the traced cells to this file"},
		perfetto: export{flag: "trace-perfetto", write: (*obs.Collector).WritePerfetto,
			usage: "write a Chrome trace-event/Perfetto JSON trace of the traced cells to this file"},
		timeline: export{flag: "timeline", write: (*obs.Collector).WriteTimelineCSV,
			usage: "write the transparency log page as CSV (cell,t_ns then the -telemetry fields) to this file"},
		telemetry: export{flag: "telemetry", write: (*obs.Collector).WriteTelemetryJSONL,
			usage: "write a JSONL stream of transparency log pages to this file"},
		metrics: export{flag: "metrics", write: (*obs.Collector).WriteMetrics,
			usage: "write a Prometheus-style text dump of per-cell metrics to this file"},
	}
	for _, e := range o.exports() {
		fs.StringVar(&e.path, e.flag, "", e.usage)
	}
	fs.IntVar(&o.traceCap, "trace-cap", 0, "per-cell trace record cap (0 = default 1<<20; negative = unbounded); drops are counted in ssdtp_trace_dropped_spans_total")
	fs.Int64Var(&o.timelineMS, "timeline-ms", 10, "-timeline sampling interval in simulated milliseconds (must be positive)")
	fs.Int64Var(&o.telemetryMS, "telemetry-ms", 1, "-telemetry and /telemetry sampling interval in simulated milliseconds (must be positive)")
	fs.StringVar(&o.http, "http", "", "serve a live ops endpoint (pprof, expvar, /metrics, /telemetry, /progress) on this address, e.g. :6060")
	return o
}

// exports lists the file exports in the order Finish writes them.
func (o *Obs) exports() []*export {
	return []*export{&o.trace, &o.perfetto, &o.timeline, &o.telemetry, &o.metrics}
}

// Start validates the sampling intervals in use and opens every requested
// output, exiting with status 2 on a bad value or path before any
// simulation runs. When an export or -http was requested it builds the
// Collector the caller traces its cells into, and starts the ops endpoint
// with progress as its /progress view (exiting with status 1 if it cannot
// listen). It returns nil, and the whole observability layer stays off, when
// nothing was requested.
func (o *Obs) Start(progress func() any) *obs.Collector {
	timeline := o.timeline.path != ""
	telemetry := o.telemetry.path != "" || o.http != ""
	// A non-positive interval would sample nothing and leave a requested
	// export empty.
	if timeline {
		MustInterval("timeline-ms", o.timelineMS, 1)
	}
	if telemetry {
		MustInterval("telemetry-ms", o.telemetryMS, 1)
	}
	requested := o.http != ""
	for _, e := range o.exports() {
		e.out = MustOpen(e.flag, e.path)
		requested = requested || e.out.Enabled()
	}
	if !requested {
		return nil
	}
	o.col = obs.NewCollector()
	if o.traceCap != 0 {
		o.col.SetRecordCap(o.traceCap)
	}
	// Each traced cell samples its log page once, at the GCD of these
	// intervals; -timeline and -telemetry (and /telemetry) each render the
	// rows on their own grid.
	if timeline {
		o.col.SetTimeline(sim.Time(o.timelineMS) * sim.Millisecond)
	}
	if telemetry {
		o.col.SetTelemetry(sim.Time(o.telemetryMS) * sim.Millisecond)
	}
	if o.http != "" {
		addr, shutdown, err := obs.ServeOps(o.http, o.col, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		o.shutdown = shutdown
		fmt.Fprintf(os.Stderr, "(ops endpoint on http://%s)\n", addr)
	}
	return o.col
}

// Finish writes every requested export through the Collector, naming each
// written file on stderr, and stops the ops endpoint. A failed write exits
// with status 1, its error wrapped with the flag and path. Callers publish
// their cells' final metrics first.
func (o *Obs) Finish() {
	for _, e := range o.exports() {
		if !e.out.Enabled() {
			continue
		}
		if err := e.out.Finish(func(f *os.File) error { return e.write(o.col, f) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "(wrote %s)\n", e.out.Path())
	}
	if o.shutdown != nil {
		o.shutdown()
	}
}
