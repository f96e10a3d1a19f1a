package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// Metrics is a set of named integer gauges/counters, snapshotted from
// simulation state at export points (end of a cell, end of a run). Values
// must derive from the simulation only — never from the wall clock — so
// exported dumps are deterministic. A nil *Metrics no-ops every method.
type Metrics struct {
	vals map[string]int64
}

// Set stores v under name, overwriting any prior value.
func (m *Metrics) Set(name string, v int64) {
	if m == nil {
		return
	}
	if m.vals == nil {
		m.vals = make(map[string]int64)
	}
	m.vals[name] = v
}

// Add increments name by v (creating it at v).
func (m *Metrics) Add(name string, v int64) {
	if m == nil {
		return
	}
	if m.vals == nil {
		m.vals = make(map[string]int64)
	}
	m.vals[name] += v
}

// Get returns the value under name, or 0 when absent (or m is nil).
func (m *Metrics) Get(name string) int64 {
	if m == nil {
		return 0
	}
	return m.vals[name]
}

// Len returns the number of metrics recorded.
func (m *Metrics) Len() int {
	if m == nil {
		return 0
	}
	return len(m.vals)
}

// sealEngineMetrics folds the tracer's engine observations into its metric
// set just before export.
func (t *Tracer) sealEngineMetrics() {
	if t == nil || !t.engineHooked {
		return
	}
	t.met.Set("ssdtp_sim_events_fired_total", t.eventsFired)
	t.met.Set("ssdtp_sim_event_queue_high_water", int64(t.pendingHigh))
	t.met.Set("ssdtp_sim_now_ns", t.now())
	t.met.Set("ssdtp_trace_dropped_spans_total", t.droppedRecs)
}

// WriteMetrics renders the tracer's metrics as Prometheus-style text: a
// "# TYPE <name> gauge" header per metric, then one sample line, with the
// cell label (when set) as a {cell="..."} label. Output is sorted by metric
// name — byte-identical for identical metric sets.
func (t *Tracer) WriteMetrics(w io.Writer) error {
	if t == nil {
		return nil
	}
	return writeMetricsText(w, []*Tracer{t})
}

// writeMetricsText renders the union of the given tracers' metrics grouped
// by metric name, cells sorted within each name. Callers pass cells already
// sorted by label.
func writeMetricsText(w io.Writer, cells []*Tracer) error {
	for _, t := range cells {
		t.sealEngineMetrics()
		t.sealAttrMetrics()
	}
	nameSet := make(map[string]struct{})
	for _, t := range cells {
		for n := range t.met.vals {
			nameSet[n] = struct{}{}
		}
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	var line []byte
	for _, n := range names {
		line = append(line[:0], `# TYPE `...)
		line = append(line, n...)
		line = append(line, " gauge\n"...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
		for _, t := range cells {
			v, ok := t.met.vals[n]
			if !ok {
				continue
			}
			line = append(line[:0], n...)
			if t.label != "" {
				line = append(line, `{cell=`...)
				line = strconv.AppendQuote(line, t.label)
				line = append(line, '}')
			}
			line = append(line, ' ')
			line = strconv.AppendInt(line, v, 10)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
