package obs

import (
	"strings"
	"testing"

	"ssdtp/internal/sim"
)

// A nil tracer (and everything hanging off it) must be a complete no-op:
// this is the zero-overhead-when-disabled contract instrumented hot paths
// rely on.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Suspend()
	tr.Resume()
	tr.BindEngine(sim.NewEngine())
	tr.Emit("ev", Int("k", 1))
	sp := tr.Begin("op", Str("kind", "x"))
	if sp.Active() {
		t.Fatal("span from nil tracer is active")
	}
	sp.Event("phase")
	sp.End()
	tr.Metrics().Set("m", 1)
	tr.Metrics().Add("m", 1)
	if got := tr.Metrics().Get("m"); got != 0 {
		t.Fatalf("nil metrics Get = %d", got)
	}
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil tracer exported %q", sb.String())
	}

	var col *Collector
	if got := col.Cell("x"); got != nil {
		t.Fatalf("nil collector handed out tracer %v", got)
	}
	if err := col.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestSpanAndEventJSONL(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer("cellA")
	tr.BindEngine(eng)

	var spanOut string
	sp := tr.Begin("ssd.write", Int("off", 4096), Int("len", 8192))
	eng.Schedule(5*sim.Microsecond, func() {
		sp.Event("ftl.dispatch")
	})
	eng.Schedule(30*sim.Microsecond, func() {
		sp.End(Str("result", "ok"))
	})
	eng.Run()
	tr.Emit("ftl.cache.evict", Int("dirty", 3))

	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	spanOut = sb.String()
	want := `{"cell":"cellA","kind":"event","name":"ftl.dispatch","span":1,"t":5000}
{"cell":"cellA","kind":"span","name":"ssd.write","id":1,"start":0,"end":30000,"attrs":{"off":4096,"len":8192,"result":"ok"}}
{"cell":"cellA","kind":"event","name":"ftl.cache.evict","t":30000,"attrs":{"dirty":3}}
`
	if spanOut != want {
		t.Fatalf("JSONL mismatch:\ngot:\n%s\nwant:\n%s", spanOut, want)
	}

	// Export is repeatable: same bytes on a second render.
	var sb2 strings.Builder
	if err := tr.WriteJSONL(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != spanOut {
		t.Fatal("second WriteJSONL differs from first")
	}
}

// Suspend must drop records begun or emitted while suspended, without
// disturbing later capture — the prefill-skipping mechanism.
func TestSuspendResume(t *testing.T) {
	tr := NewTracer("c")
	tr.Suspend()
	tr.Emit("dropped")
	sp := tr.Begin("dropped.span")
	sp.End()
	if tr.Records() != 0 {
		t.Fatalf("suspended tracer captured %d records", tr.Records())
	}
	tr.Resume()
	tr.Emit("kept")
	if tr.Records() != 1 {
		t.Fatalf("resumed tracer captured %d records, want 1", tr.Records())
	}
	// A span begun while suspended stays inert even after Resume.
	if sp.Active() {
		t.Fatal("span begun under suspension is active")
	}
}

func TestEngineHookMetrics(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer("c")
	tr.BindEngine(eng)
	for i := 0; i < 10; i++ {
		eng.Schedule(sim.Time(i)*sim.Microsecond, func() {})
	}
	eng.Run()
	var sb strings.Builder
	if err := writeMetricsText(&sb, []*Tracer{tr}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `ssdtp_sim_events_fired_total{cell="c"} 10`) {
		t.Fatalf("missing fired-events metric:\n%s", out)
	}
	// The hook observes the queue after the firing event leaves it: 10
	// events queued up front peak at 9 remaining.
	if !strings.Contains(out, `ssdtp_sim_event_queue_high_water{cell="c"} 9`) {
		t.Fatalf("missing high-water metric:\n%s", out)
	}
}

// Collector exports must order cells by label regardless of registration
// order — the worker-count-independence contract.
func TestCollectorOrdersByLabel(t *testing.T) {
	col := NewCollector()
	// Register out of order, as parallel workers would.
	b := col.Cell("grid/b")
	a := col.Cell("grid/a")
	b.Emit("evB")
	a.Emit("evA")
	a.Metrics().Set("ssdtp_x", 1)
	b.Metrics().Set("ssdtp_x", 2)

	var traceOut, metOut strings.Builder
	if err := col.WriteJSONL(&traceOut); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteMetrics(&metOut); err != nil {
		t.Fatal(err)
	}
	wantTrace := `{"cell":"grid/a","kind":"event","name":"evA","t":0}
{"cell":"grid/b","kind":"event","name":"evB","t":0}
`
	if traceOut.String() != wantTrace {
		t.Fatalf("trace order:\ngot:\n%s\nwant:\n%s", traceOut.String(), wantTrace)
	}
	wantMet := "# TYPE ssdtp_x gauge\n" +
		"ssdtp_x{cell=\"grid/a\"} 1\n" +
		"ssdtp_x{cell=\"grid/b\"} 2\n"
	if metOut.String() != wantMet {
		t.Fatalf("metrics order:\ngot:\n%s\nwant:\n%s", metOut.String(), wantMet)
	}
	if col.Cell("grid/a") != a {
		t.Fatal("repeated Cell(label) did not return the same tracer")
	}
}

// Attribute values must be JSON-escaped so arbitrary labels cannot corrupt
// the stream.
func TestStringAttrEscaping(t *testing.T) {
	tr := NewTracer(`cell"with\quotes`)
	tr.Emit("ev", Str("k", "line\nbreak\"q"))
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"cell":"cell\"with\\quotes","kind":"event","name":"ev","t":0,"attrs":{"k":"line\nbreak\"q"}}` + "\n"
	if sb.String() != want {
		t.Fatalf("escaping:\ngot:  %q\nwant: %q", sb.String(), want)
	}
}

// A full tracer counts every record it drops and allocates nothing for it:
// Begin, Emit, Span.Event and Span.End copy their attributes only for a
// record they keep, so the callers' variadic slices stay on their stacks.
func TestFullTracerZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer("c")
	tr.BindEngine(eng)
	tr.SetRecordCap(2)
	early := tr.Begin("early", Int("k", 1))
	tr.Emit("a")
	tr.Emit("b")
	if tr.Records() != 2 || tr.DroppedRecords() != 0 {
		t.Fatalf("records %d, dropped %d; want 2 and 0", tr.Records(), tr.DroppedRecords())
	}
	ops := func() {
		tr.Emit("e", Int("x", 1), Str("s", "v"))
		sp := tr.Begin("s", Int("off", 2), Int("len", 3))
		sp.Event("ev", Int("y", 4))
		sp.End(Str("result", "ok"))
	}
	ops()
	if got := tr.DroppedRecords(); got != 3 {
		t.Fatalf("one Emit, Begin, Event and End dropped %d records, want 3 (Begin counts at its End)", got)
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, ops); n != 0 {
			t.Fatalf("full tracer allocated %.1f objects per Emit/Begin/Event/End, want 0", n)
		}
	}
	dropped := tr.DroppedRecords()
	// A span begun before the cap was reached and ended after it is one
	// dropped record.
	early.End(Int("late", 1))
	if got := tr.DroppedRecords() - dropped; got != 1 || tr.Records() != 2 {
		t.Fatalf("ending a pre-cap span dropped %d records (records %d), want 1 (2)", got, tr.Records())
	}
}

// A kept span owns its attributes: the caller may reuse its slice after
// Begin returns, and End's extra attributes never write into a shared
// backing array.
func TestSpanCopiesAttrs(t *testing.T) {
	tr := NewTracer("")
	attrs := []Attr{Int("a", 1)}
	sp := tr.Begin("x", attrs...)
	attrs[0] = Int("a", 2)
	sp.End(Int("b", 3))
	sp.End(Int("c", 4))
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"span","name":"x","id":1,"start":0,"end":0,"attrs":{"a":1,"b":3}}
{"kind":"span","name":"x","id":1,"start":0,"end":0,"attrs":{"a":1,"c":4}}
`
	if sb.String() != want {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", sb.String(), want)
	}
}
