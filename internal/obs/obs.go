// Package obs is the observability layer of the simulated SSD stack: request
// lifecycle spans, point events, and counter snapshots, all timestamped with
// the *simulated* clock. The paper's argument is that real SSDs hide exactly
// the internal events (garbage collection, cache writeback, channel
// contention) that explain their tail latency; this package is the white-box
// counterpart — every layer of the stack (ssd, ftl, hostif) emits into a
// Tracer, and exporters render JSONL span streams and a Prometheus-style
// metrics dump.
//
// Two contracts govern the design:
//
//   - Zero overhead when disabled. A nil *Tracer is fully functional: every
//     method no-ops, Begin returns an inert Span, and hot paths pay one nil
//     check. Instrumented code never needs a conditional around its calls
//     (though it may use Enabled to skip attribute construction).
//
//   - Determinism. Records carry only simulated timestamps and values derived
//     from the simulation state, never the wall clock; each Tracer belongs to
//     one single-threaded engine, so its record order is the engine's event
//     order. Traces of a fixed-seed run are therefore byte-identical across
//     runs and across -parallel worker counts (the Collector orders cells by
//     label, not by completion).
package obs

import (
	"bufio"
	"io"
	"strconv"

	"ssdtp/internal/sim"
	"ssdtp/internal/telemetry"
)

// Attr is one key/value annotation on a span or event. Construct with Int or
// Str; rendering preserves construction order so output is deterministic.
type Attr struct {
	key   string
	str   string
	num   int64
	isStr bool
}

// Int builds an integer-valued attribute.
func Int(key string, v int64) Attr { return Attr{key: key, num: v} }

// Str builds a string-valued attribute.
func Str(key, v string) Attr { return Attr{key: key, str: v, isStr: true} }

// recKind distinguishes buffered records.
type recKind uint8

const (
	recSpan recKind = iota
	recEvent
)

// record is one buffered trace record: a completed span or a point event.
type record struct {
	kind   recKind
	name   string
	id     uint64 // span id (recSpan)
	parent uint64 // owning span id for events; 0 = top level
	start  sim.Time
	end    sim.Time // recSpan only
	attrs  []Attr
}

// Tracer buffers one cell's trace records and metrics. It is not safe for
// concurrent use — like the sim.Engine it observes, it belongs to exactly one
// single-threaded simulation. A nil Tracer is valid and makes every
// operation a no-op.
type Tracer struct {
	label     string
	clock     func() sim.Time
	suspended bool
	nextID    uint64
	recs      []record
	met       Metrics

	// recCap bounds len(recs); records beyond it are counted in droppedRecs
	// instead of buffered, so unbounded -full -trace runs degrade gracefully.
	recCap      int
	droppedRecs int64

	prof  *Profiler           // latency attribution (lazily created by Prof)
	page  *window             // page-recorder window (nil unless SamplePages enabled it)
	pages *telemetry.Recorder // the cell's log-page rows
	win   *window             // aux sampling window (nil unless SetWindow configured)

	// Engine observation (installed by BindEngine).
	eventsFired  int64
	pendingHigh  int
	engineHooked bool
}

// DefaultRecordCap is the per-cell trace-record bound applied to new tracers;
// override with SetRecordCap.
const DefaultRecordCap = 1 << 20

// NewTracer returns an empty tracer. label names the cell in exported
// records; it may be empty for single-run tools.
func NewTracer(label string) *Tracer { return &Tracer{label: label, recCap: DefaultRecordCap} }

// SetRecordCap bounds the tracer's buffered trace records; records past the
// cap are dropped and counted in the ssdtp_trace_dropped_spans_total metric.
// n <= 0 removes the bound.
func (t *Tracer) SetRecordCap(n int) {
	if t != nil {
		t.recCap = n
	}
}

// DroppedRecords returns the number of records discarded by the record cap.
// Exports carry the same count as a metric; this accessor lets the ssd
// package's zero-allocation tests check that a capped tracer still counts
// what it drops.
func (t *Tracer) DroppedRecords() int64 {
	if t == nil {
		return 0
	}
	return t.droppedRecs
}

// full reports whether the record cap is reached. Records are never removed,
// so a full tracer drops every later record.
func (t *Tracer) full() bool { return t.recCap > 0 && len(t.recs) >= t.recCap }

// keep reports whether the next record will be buffered, counting it as
// dropped when it will not. Callers build the record (and copy its
// attributes) only after keep returns true, so a full tracer allocates
// nothing and the variadic attribute slices of Begin, Emit, Event and End
// never escape their call sites.
func (t *Tracer) keep() bool {
	if t.full() {
		t.droppedRecs++
		return false
	}
	return true
}

// copyAttrs returns a tracer-owned copy of a caller's attributes (nil when
// there are none).
func copyAttrs(attrs []Attr) []Attr { return append([]Attr(nil), attrs...) }

// Label returns the cell label the tracer was created with.
func (t *Tracer) Label() string {
	if t == nil {
		return ""
	}
	return t.label
}

// Enabled reports whether records are currently being captured. False for a
// nil tracer and while suspended; instrumentation sites use it to skip
// attribute construction on hot paths.
func (t *Tracer) Enabled() bool { return t != nil && !t.suspended }

// Suspend stops record capture until Resume. Experiments use it to skip
// high-volume setup phases (device prefill) deterministically: suspension is
// a pure function of program structure, never of timing.
func (t *Tracer) Suspend() {
	if t != nil {
		t.suspended = true
	}
}

// Resume re-enables record capture after Suspend.
func (t *Tracer) Resume() {
	if t != nil {
		t.suspended = false
	}
}

// BindEngine points the tracer's clock at eng and installs a step hook that
// counts fired events and tracks the pending-queue high water. Devices bind
// their engine at construction, so tracers can be created before engines
// exist. Binding a nil engine (or a nil tracer) is a no-op.
func (t *Tracer) BindEngine(eng *sim.Engine) {
	if t == nil || eng == nil {
		return
	}
	t.clock = eng.Now
	if !t.engineHooked {
		t.engineHooked = true
		eng.SetHook(func(now sim.Time, pending int) {
			t.eventsFired++
			if pending > t.pendingHigh {
				t.pendingHigh = pending
			}
			if t.page != nil && !t.suspended {
				t.page.observe(now)
			}
			if t.win != nil && !t.suspended {
				t.win.observe(now)
			}
		})
	}
}

// EventsFired returns the engine events observed so far via the BindEngine
// hook (0 for a nil tracer).
func (t *Tracer) EventsFired() int64 {
	if t == nil {
		return 0
	}
	return t.eventsFired
}

// AddEventsFired credits n engine events to the tracer's fired counter. The
// snapshot cache uses it to make a restored clone report the same
// ssdtp_sim_events_fired_total a from-scratch build would: the clone's engine
// never fires the preconditioning events, so the count captured during the
// cached build is added back here. No-op on a nil tracer.
func (t *Tracer) AddEventsFired(n int64) {
	if t != nil {
		t.eventsFired += n
	}
}

// now returns the simulated time, or 0 before any engine is bound.
func (t *Tracer) now() sim.Time {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// Begin opens a span. The returned Span is a value; pass it into the
// completion callback and call End there. When the tracer is nil or
// suspended, the span is inert and End/Event on it are no-ops. On a full
// tracer the span is still active but carries id 0: its End counts one
// dropped record and keeps nothing.
func (t *Tracer) Begin(name string, attrs ...Attr) Span {
	if !t.Enabled() {
		return Span{}
	}
	t.nextID++
	if t.full() {
		return Span{tr: t, name: name}
	}
	return Span{tr: t, id: t.nextID, name: name, start: t.now(), attrs: copyAttrs(attrs)}
}

// Emit records a top-level point event at the current simulated time.
func (t *Tracer) Emit(name string, attrs ...Attr) {
	if !t.Enabled() || !t.keep() {
		return
	}
	t.recs = append(t.recs, record{kind: recEvent, name: name, start: t.now(), attrs: copyAttrs(attrs)})
}

// Metrics returns the tracer's metric set, or nil for a nil tracer. The
// returned *Metrics is itself nil-safe, so callers can chain
// tr.Metrics().Set(...) unconditionally.
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return &t.met
}

// Records returns the number of buffered trace records. The ssd package's
// zero-allocation tests read it to check that a capped tracer keeps nothing
// past its cap.
func (t *Tracer) Records() int {
	if t == nil {
		return 0
	}
	return len(t.recs)
}

// Span is one in-flight traced operation. The zero value is inert: Event and
// End on it do nothing, so instrumented code needs no enabled-checks around
// span completion.
type Span struct {
	tr    *Tracer
	id    uint64
	name  string
	start sim.Time
	attrs []Attr
}

// Active reports whether the span is recording.
func (s Span) Active() bool { return s.tr != nil }

// Event records a point event inside the span (a lifecycle phase: dispatch,
// issue, retry) at the current simulated time.
func (s Span) Event(name string, attrs ...Attr) {
	t := s.tr
	if t == nil || t.suspended || !t.keep() {
		return
	}
	t.recs = append(t.recs, record{
		kind: recEvent, name: name, parent: s.id, start: t.now(), attrs: copyAttrs(attrs),
	})
}

// End closes the span at the current simulated time, appending any extra
// attributes, and buffers it for export. Spans are exported in End order —
// deterministic, because the engine is single-threaded.
func (s Span) End(attrs ...Attr) {
	t := s.tr
	if t == nil || t.suspended {
		return
	}
	if s.id == 0 { // begun on a full tracer
		t.droppedRecs++
		return
	}
	if !t.keep() {
		return
	}
	all := s.attrs
	if len(attrs) > 0 {
		// s.attrs is this span's own copy (Begin); cap it so the append
		// reallocates rather than writing into a shared Span value's slice.
		all = append(s.attrs[:len(s.attrs):len(s.attrs)], attrs...)
	}
	t.recs = append(t.recs, record{
		kind: recSpan, name: s.name, id: s.id, start: s.start, end: t.now(), attrs: all,
	})
}

// WriteJSONL renders the tracer's records, one JSON object per line, in
// record order. Serialization is hand-rolled with a fixed field order (no
// map iteration anywhere), so the bytes are a pure function of the records.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range t.recs {
		line = appendRecordJSON(line[:0], t.label, &t.recs[i])
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendRecordJSON renders one record as a JSON line into dst.
func appendRecordJSON(dst []byte, cell string, r *record) []byte {
	dst = append(dst, '{')
	if cell != "" {
		dst = append(dst, `"cell":`...)
		dst = strconv.AppendQuote(dst, cell)
		dst = append(dst, ',')
	}
	if r.kind == recSpan {
		dst = append(dst, `"kind":"span","name":`...)
		dst = strconv.AppendQuote(dst, r.name)
		dst = append(dst, `,"id":`...)
		dst = strconv.AppendUint(dst, r.id, 10)
		dst = append(dst, `,"start":`...)
		dst = strconv.AppendInt(dst, r.start, 10)
		dst = append(dst, `,"end":`...)
		dst = strconv.AppendInt(dst, r.end, 10)
	} else {
		dst = append(dst, `"kind":"event","name":`...)
		dst = strconv.AppendQuote(dst, r.name)
		if r.parent != 0 {
			dst = append(dst, `,"span":`...)
			dst = strconv.AppendUint(dst, r.parent, 10)
		}
		dst = append(dst, `,"t":`...)
		dst = strconv.AppendInt(dst, r.start, 10)
	}
	if len(r.attrs) > 0 {
		dst = append(dst, `,"attrs":{`...)
		for i := range r.attrs {
			a := &r.attrs[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendQuote(dst, a.key)
			dst = append(dst, ':')
			if a.isStr {
				dst = strconv.AppendQuote(dst, a.str)
			} else {
				dst = strconv.AppendInt(dst, a.num, 10)
			}
		}
		dst = append(dst, '}')
	}
	dst = append(dst, '}', '\n')
	return dst
}
