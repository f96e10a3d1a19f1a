package obs

import (
	"io"
	"sort"
	"sync"

	"ssdtp/internal/sim"
	"ssdtp/internal/telemetry"
)

// Collector aggregates per-cell tracers across a parallel experiment run.
// Cell creation is the only concurrent touch point (worker goroutines call
// Cell as their cells start); each returned Tracer is then used only inside
// its own single-threaded simulation, and exports happen after the run's
// runner.Map has returned (a happens-before edge), so no locking is needed
// beyond the registry itself.
//
// Exports order cells by label, never by completion, so collected output is
// byte-identical at any worker count. A nil *Collector hands out nil tracers,
// keeping the whole observability layer disabled by default.
type Collector struct {
	mu        sync.Mutex
	cells     map[string]*Tracer
	done      map[string]bool
	recordCap int      // 0 = tracer default; applied to cells at creation
	timeline  sim.Time // -timeline export interval (0 = off)
	telemetry sim.Time // -telemetry export interval (0 = off)
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{cells: make(map[string]*Tracer), done: make(map[string]bool)}
}

// SetRecordCap applies a per-cell trace-record cap to existing cells and to
// every cell created afterward (see Tracer.SetRecordCap).
func (c *Collector) SetRecordCap(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recordCap = n
	for _, t := range c.cells {
		t.SetRecordCap(n)
	}
}

// SetTimeline enables the -timeline CSV export at the given interval for
// every cell created afterward; interval <= 0 disables it.
func (c *Collector) SetTimeline(interval sim.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeline = max(interval, 0)
}

// SetTelemetry enables the -telemetry JSONL export (and the ops endpoint's
// /telemetry view) at the given interval for every cell created afterward;
// interval <= 0 disables it.
func (c *Collector) SetTelemetry(interval sim.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.telemetry = max(interval, 0)
}

// pageInterval is the one interval each cell's page recorder samples at:
// the greatest common divisor of the enabled exports' intervals (0 when
// none is enabled). Each export renders the recorded rows on its own grid
// (telemetry.WriteCSV, WriteJSONL). That is exact, not approximate: an
// export's interval is a multiple of the recorder's, both grids anchor just
// past the same first observation, and every boundary a hook call crosses
// fires in that call, so the rows on an export's grid are exactly the rows
// a window of the export's interval would have fired, read from the same
// state. Caller holds c.mu.
func (c *Collector) pageInterval() sim.Time {
	a, b := c.timeline, c.telemetry
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Cell returns the tracer for label, creating it on first use. Repeated
// calls with one label share a tracer (its records append across uses). A
// nil collector returns a nil tracer.
func (c *Collector) Cell(label string) *Tracer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.cells[label]
	if !ok {
		t = NewTracer(label)
		if c.recordCap != 0 {
			t.SetRecordCap(c.recordCap)
		}
		t.SamplePages(c.pageInterval())
		c.cells[label] = t
	}
	return t
}

// MarkDone records that label's cell finished its run. Done cells are safe to
// export concurrently with other cells still running: the worker no longer
// touches the tracer, and the collector mutex publishes its final state. The
// live /metrics endpoint renders done cells only.
func (c *Collector) MarkDone(label string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[label] = true
}

// doneTracers returns the tracers of completed cells, sorted by label.
func (c *Collector) doneTracers() []*Tracer {
	c.mu.Lock()
	out := make([]*Tracer, 0, len(c.done))
	for label := range c.done {
		if t, ok := c.cells[label]; ok {
			out = append(out, t)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// WriteMetricsDone renders the metrics of completed cells only; safe while a
// run is still in flight (the live ops endpoint's /metrics view).
func (c *Collector) WriteMetricsDone(w io.Writer) error {
	if c == nil {
		return nil
	}
	return writeMetricsText(w, c.doneTracers())
}

// Cells returns the number of registered cell tracers.
func (c *Collector) Cells() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells)
}

// tracers returns the registered tracers sorted by label.
func (c *Collector) tracers() []*Tracer {
	c.mu.Lock()
	out := make([]*Tracer, 0, len(c.cells))
	for _, t := range c.cells {
		out = append(out, t)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// WriteJSONL renders every cell's trace, cells in label order, records in
// engine order within each cell.
func (c *Collector) WriteJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	for _, t := range c.tracers() {
		if err := t.WriteJSONL(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteMetrics renders every cell's metrics as Prometheus-style text,
// grouped by metric name with one {cell="..."} sample line per cell.
func (c *Collector) WriteMetrics(w io.Writer) error {
	if c == nil {
		return nil
	}
	return writeMetricsText(w, c.tracers())
}

// WritePerfetto renders every cell's trace as one Chrome trace-event JSON
// document, one process per cell in label order.
func (c *Collector) WritePerfetto(w io.Writer) error {
	if c == nil {
		return nil
	}
	return writePerfetto(w, c.tracers())
}

// WriteTimelineCSV renders every cell's log-page rows on the -timeline grid
// as one CSV stream, cells in label order under a single header (header only
// when the timeline is off).
func (c *Collector) WriteTimelineCSV(w io.Writer) error {
	if c == nil {
		return nil
	}
	return telemetry.WriteCSV(w, c.timeline, pageRecorders(c.tracers())...)
}

// WriteTelemetryJSONL renders every cell's log-page rows on the -telemetry
// grid, one JSON object per line, cells in label order (nothing when
// telemetry is off).
func (c *Collector) WriteTelemetryJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	return telemetry.WriteJSONL(w, c.telemetry, pageRecorders(c.tracers())...)
}

// WriteTelemetryJSONLDone is WriteTelemetryJSONL over completed cells only;
// safe while a run is still in flight (the ops endpoint's /telemetry view).
func (c *Collector) WriteTelemetryJSONLDone(w io.Writer) error {
	if c == nil {
		return nil
	}
	return telemetry.WriteJSONL(w, c.telemetry, pageRecorders(c.doneTracers())...)
}

// pageRecorders returns the tracers' page recorders, in order.
func pageRecorders(tracers []*Tracer) []*telemetry.Recorder {
	recs := make([]*telemetry.Recorder, len(tracers))
	for i, t := range tracers {
		recs[i] = t.pages
	}
	return recs
}
