package obs

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"ssdtp/internal/sim"
	"ssdtp/internal/telemetry"
)

// pfDoc mirrors the Chrome trace-event JSON document shape for test parsing.
type pfDoc struct {
	DisplayTimeUnit string    `json:"displayTimeUnit"`
	TraceEvents     []pfDocEv `json:"traceEvents"`
}

type pfDocEv struct {
	Ph   string  `json:"ph"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	TS   float64 `json:"ts"`
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	ID   string  `json:"id"`
}

// perfettoFixture builds a tracer with every record shape the exporter
// handles: nested die-track spans, a GC span, an overlapping async request
// span, and point events.
func perfettoFixture(t *testing.T) *Tracer {
	t.Helper()
	eng := sim.NewEngine()
	tr := NewTracer("grid/cell")
	tr.BindEngine(eng)

	req := tr.Begin("ssd.write", Int("off", 0), Int("len", 4096))
	prog := tr.Begin("nand.program", Int("ch", 0), Int("chip", 1), Int("die", 0))
	eng.Schedule(10*sim.Microsecond, func() {
		prog.End()
		// Back-to-back op on the same die: ends at t, next begins at t.
		read := tr.Begin("nand.read", Int("ch", 0), Int("chip", 1), Int("die", 0))
		eng.Schedule(5*sim.Microsecond, func() { read.End() })
	})
	gc := tr.Begin("ftl.gc", Int("pu", 3))
	eng.Schedule(20*sim.Microsecond, func() {
		gc.End()
		req.End()
	})
	eng.Run()
	tr.Emit("ftl.cache.evict", Int("dirty", 1))
	return tr
}

// The export must be a valid JSON document with the fields Perfetto needs.
func TestPerfettoValidJSON(t *testing.T) {
	tr := perfettoFixture(t)
	var sb strings.Builder
	if err := tr.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	var doc pfDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, sb.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev.Ph)
	}
	joined := strings.Join(phases, "")
	for _, ph := range []string{"M", "B", "E", "b", "e", "i"} {
		if !strings.Contains(joined, ph) {
			t.Errorf("no %q events in export", ph)
		}
	}
}

// Per track: timestamps must be monotonic, B/E pairs balanced with the depth
// never going negative (Perfetto rejects unbalanced thread tracks), and async
// b/e pairs matched by id.
func TestPerfettoTracksWellFormed(t *testing.T) {
	tr := perfettoFixture(t)
	var sb strings.Builder
	if err := tr.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	var doc pfDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	type track struct{ pid, tid int }
	lastTS := map[track]float64{}
	depth := map[track]int{}
	asyncOpen := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		k := track{ev.PID, ev.TID}
		if prev, ok := lastTS[k]; ok && ev.TS < prev {
			t.Fatalf("track %v: ts %v after %v", k, ev.TS, prev)
		}
		lastTS[k] = ev.TS
		switch ev.Ph {
		case "B":
			depth[k]++
		case "E":
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("track %v: E without matching B at ts %v", k, ev.TS)
			}
		case "b":
			asyncOpen[ev.ID]++
		case "e":
			asyncOpen[ev.ID]--
			if asyncOpen[ev.ID] < 0 {
				t.Fatalf("async id %q: e without matching b", ev.ID)
			}
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Errorf("track %v: %d unclosed B events", k, d)
		}
	}
	for id, n := range asyncOpen {
		if n != 0 {
			t.Errorf("async id %q: %d unclosed b events", id, n)
		}
	}
}

// Multi-cell collector export: one process per cell, in label order, and the
// whole document still parses.
func TestPerfettoCollectorMultiCell(t *testing.T) {
	col := NewCollector()
	for _, label := range []string{"grid/b", "grid/a"} {
		eng := sim.NewEngine()
		tr := col.Cell(label)
		tr.BindEngine(eng)
		sp := tr.Begin("ssd.read")
		eng.Schedule(sim.Microsecond, func() { sp.End() })
		eng.Run()
	}
	var sb strings.Builder
	if err := col.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	var doc pfDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Index(out, `"grid/a"`) > strings.Index(out, `"grid/b"`) {
		t.Fatal("cells not ordered by label")
	}
}

// The record cap must drop overflow records (not grow the buffer) and export
// the drop count, so unbounded -full traces degrade gracefully and visibly.
func TestRecordCapDropsCounted(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer("c")
	tr.BindEngine(eng)
	tr.SetRecordCap(2)
	for i := 0; i < 5; i++ {
		tr.Emit("ev", Int("i", int64(i)))
	}
	if tr.Records() != 2 {
		t.Fatalf("records = %d, want 2", tr.Records())
	}
	if tr.DroppedRecords() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.DroppedRecords())
	}
	var sb strings.Builder
	if err := tr.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `ssdtp_trace_dropped_spans_total{cell="c"} 3`) {
		t.Fatalf("missing dropped-spans metric:\n%s", sb.String())
	}
	// Collector-applied cap reaches existing cells too.
	col := NewCollector()
	cell := col.Cell("x")
	col.SetRecordCap(1)
	cell.Emit("a")
	cell.Emit("b")
	if cell.Records() != 1 || cell.DroppedRecords() != 1 {
		t.Fatalf("collector cap: records=%d dropped=%d, want 1/1", cell.Records(), cell.DroppedRecords())
	}
}

// Timeline sampling: rows land exactly on absolute interval boundaries, with
// values read through the bound log-page source at the boundary crossing.
func TestTimelineSampling(t *testing.T) {
	eng := sim.NewEngine()
	col := NewCollector()
	col.SetTimeline(10 * sim.Microsecond)
	tr := col.Cell("c")
	var written int64
	tr.SetPageSource(func(p *telemetry.Page) { p.Drives, p.HostSectorsWritten = 1, written })
	tr.BindEngine(eng)

	// Events at 1µs (anchors the first boundary), then past two boundaries.
	eng.Schedule(1*sim.Microsecond, func() { written = 100 })
	eng.Schedule(12*sim.Microsecond, func() { written = 200 })
	eng.Schedule(25*sim.Microsecond, func() {})
	eng.Run()

	var sb strings.Builder
	if err := col.WriteTimelineCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "cell,t_ns,drives,host_sectors_written,") {
		t.Fatalf("header = %q, want cell,t_ns then the log-page fields", lines[0])
	}
	// The first fired event at or past each boundary triggers its sample; the
	// engine hook runs before the event's callback, so the 10µs row sees the
	// state as of the 1µs callback and the 20µs row the 12µs callback.
	if !strings.HasPrefix(lines[1], `"c",10000,1,100,`) {
		t.Fatalf("row 1 = %q, want boundary t=10000 with written=100", lines[1])
	}
	if !strings.HasPrefix(lines[2], `"c",20000,1,200,`) {
		t.Fatalf("row 2 = %q, want boundary t=20000 with written=200", lines[2])
	}
}

// One page recorder serves both exports: the collector samples at the GCD of
// the enabled intervals, and each export renders the rows on its own grid —
// exactly the rows a window of its interval would have recorded. Cells
// render in label order, and the done-only view skips running cells.
func TestCollectorPageExports(t *testing.T) {
	col := NewCollector()
	col.SetTimeline(3 * sim.Microsecond)
	col.SetTelemetry(2 * sim.Microsecond)
	var written int64
	src := func(p *telemetry.Page) { p.Drives, p.HostSectorsWritten = 1, written }
	var cells []*Tracer
	for _, label := range []string{"b", "a", "c"} {
		tr := col.Cell(label)
		tr.SetPageSource(src)
		cells = append(cells, tr)
	}
	// The reference: standalone windows at each export's own interval.
	ref2, ref3 := telemetry.NewRecorder("a"), telemetry.NewRecorder("a")
	ref2.SetSource(src)
	ref3.SetSource(src)
	w2 := &window{interval: 2 * sim.Microsecond, fire: ref2.Observe}
	w3 := &window{interval: 3 * sim.Microsecond, fire: ref3.Observe}
	// Engine-hook calls at irregular times, each crossing zero or more
	// boundaries and reading the state the previous event left.
	for _, at := range []sim.Time{1, 2, 5, 7, 13, 14, 20} {
		now := at * sim.Microsecond
		for _, tr := range cells {
			tr.page.observe(now)
		}
		w2.observe(now)
		w3.observe(now)
		written = int64(at)
	}
	col.MarkDone("c")

	render := func(write func(io.Writer) error) string {
		var sb strings.Builder
		if err := write(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	// rowsOf returns the lines of cell label, and the order cells appear in.
	rowsOf := func(s, label string) (string, string) {
		var rows, order string
		for _, line := range strings.SplitAfter(s, "\n") {
			cell, _, ok := strings.Cut(strings.TrimPrefix(strings.TrimPrefix(line, `{"cell":`), `"`), `"`)
			if !ok || strings.HasPrefix(line, "cell,") {
				continue
			}
			if !strings.HasSuffix(order, cell) {
				order += cell
			}
			if cell == label {
				rows += line
			}
		}
		return rows, order
	}
	timeline, timelineOrder := rowsOf(render(col.WriteTimelineCSV), "a")
	want3, _ := rowsOf(render(func(w io.Writer) error { return telemetry.WriteCSV(w, 1, ref3) }), "a")
	if timeline == "" || timeline != want3 || timelineOrder != "abc" {
		t.Errorf("3µs timeline rows (cells %q):\n%s\nwant a 3µs window's:\n%s", timelineOrder, timeline, want3)
	}
	tele, teleOrder := rowsOf(render(col.WriteTelemetryJSONL), "a")
	want2, _ := rowsOf(render(func(w io.Writer) error { return telemetry.WriteJSONL(w, 1, ref2) }), "a")
	if tele == "" || tele != want2 || teleOrder != "abc" {
		t.Errorf("2µs telemetry rows (cells %q):\n%s\nwant a 2µs window's:\n%s", teleOrder, tele, want2)
	}
	if _, order := rowsOf(render(col.WriteTelemetryJSONLDone), ""); order != "c" {
		t.Errorf("done-only view lists cells %q, want only c", order)
	}
}
