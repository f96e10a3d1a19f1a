package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ssdtp/internal/sim"
)

// testPage returns a page with every field set to a distinct value, so any
// field-order or field-name drift between encoder and decoder shows up as a
// value mismatch, not a silent swap.
func testPage(base int64) Page {
	var p Page
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(base + int64(i))
	}
	return p
}

// TestPageFieldsPinned pins the three places the schema lives — the struct's
// json tags (decode), pageFields (encode order), and values() (encode
// values) — against each other, field for field.
func TestPageFieldsPinned(t *testing.T) {
	typ := reflect.TypeOf(Page{})
	if typ.NumField() != len(pageFields) {
		t.Fatalf("Page has %d fields, pageFields %d", typ.NumField(), len(pageFields))
	}
	for i := 0; i < typ.NumField(); i++ {
		tag := typ.Field(i).Tag.Get("json")
		if tag != pageFields[i] {
			t.Errorf("field %d (%s): json tag %q != pageFields %q",
				i, typ.Field(i).Name, tag, pageFields[i])
		}
	}
	p := testPage(100)
	vals := p.values()
	pv := reflect.ValueOf(p)
	for i := range vals {
		if want := pv.Field(i).Int(); vals[i] != want {
			t.Errorf("values()[%d] = %d, want %d (field %s out of order)",
				i, vals[i], want, typ.Field(i).Name)
		}
	}
}

func TestRowRoundTrip(t *testing.T) {
	rec := NewRecorder("cell-a", sim.Millisecond)
	pages := []Page{testPage(1), testPage(1000), {}}
	i := 0
	rec.SetSource(func(p *Page) { *p = pages[i]; i++ })
	for k := range pages {
		rec.Observe(sim.Time(k+1) * sim.Millisecond)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, buf.String())
	}
	if len(rows) != len(pages) {
		t.Fatalf("parsed %d rows, want %d", len(rows), len(pages))
	}
	for k, row := range rows {
		if row.Cell != "cell-a" {
			t.Errorf("row %d cell = %q", k, row.Cell)
		}
		if row.T != sim.Time(k+1)*sim.Millisecond {
			t.Errorf("row %d t = %d", k, row.T)
		}
		if row.Page != pages[k] {
			t.Errorf("row %d page mismatch:\n got %+v\nwant %+v", k, row.Page, pages[k])
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"{",
		`{"t":1}{"t":2}`,
		`{"t":1.5}`,
		`{"t":"x"}`,
		"not json at all",
		`{"t":99999999999999999999999999}`,
	} {
		if _, err := Parse(strings.NewReader(in + "\n")); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
	// Blank lines and comments are skipped, unknown fields tolerated.
	ok := "# header comment\n\n" + `{"cell":"x","t":3,"drives":1,"future_field":7}` + "\n"
	rows, err := Parse(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("Parse comment/unknown-field stream: %v", err)
	}
	if len(rows) != 1 || rows[0].Drives != 1 || rows[0].T != 3 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestAccumulate(t *testing.T) {
	a := Page{Drives: 1, HostSectorsWritten: 10, FreeBlocksMin: 5, GCReserveBlocks: 3,
		GCVictimValidPPM: 100, FreeBlocks: 50}
	b := Page{Drives: 1, HostSectorsWritten: 7, FreeBlocksMin: 2, GCReserveBlocks: 4,
		GCVictimValidPPM: 900, FreeBlocks: 30}
	var p Page
	p.Accumulate(&a)
	if p != a {
		t.Fatalf("first accumulate should copy: %+v", p)
	}
	p.Accumulate(&b)
	if p.Drives != 2 || p.HostSectorsWritten != 17 || p.FreeBlocks != 80 {
		t.Errorf("sums wrong: %+v", p)
	}
	if p.FreeBlocksMin != 2 {
		t.Errorf("FreeBlocksMin = %d, want min 2", p.FreeBlocksMin)
	}
	if p.GCReserveBlocks != 4 {
		t.Errorf("GCReserveBlocks = %d, want max 4", p.GCReserveBlocks)
	}
	if p.GCVictimValidPPM != 900 {
		t.Errorf("GCVictimValidPPM = %d, want max 900", p.GCVictimValidPPM)
	}
}

func TestSetOrderingAndDone(t *testing.T) {
	s := NewSet(sim.Millisecond)
	for _, cell := range []string{"b", "a", "c"} {
		r := s.Cell(cell)
		r.SetSource(func(p *Page) { p.Drives = 1 })
		r.Observe(sim.Millisecond)
	}
	s.MarkDone("c")
	var all, done bytes.Buffer
	if err := s.WriteJSONL(&all); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSONLDone(&done); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(all.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d", len(lines))
	}
	for i, cell := range []string{"a", "b", "c"} {
		if !strings.Contains(lines[i], `"cell":"`+cell+`"`) {
			t.Errorf("line %d not label-sorted: %s", i, lines[i])
		}
	}
	if got := strings.TrimSpace(done.String()); strings.Count(got, "\n") != 0 ||
		!strings.Contains(got, `"cell":"c"`) {
		t.Errorf("done view = %q, want only cell c", got)
	}
	// Same-label lookups share the recorder; nil set hands out nil.
	if s.Cell("a") != s.Cell("a") {
		t.Error("Cell not idempotent")
	}
	var nilSet *Set
	if nilSet.Cell("x") != nil || nilSet.Interval() != 0 {
		t.Error("nil Set should hand out nil recorders")
	}
}

// wafSaturated is the windowed-WAF value reported when NAND programs happened
// in a window with zero host programs (pure background work).
const wafSaturated = int64(1_000_000)

// WindowWAFMilli returns the in-window write amplification ×1000 between two
// consecutive pages: Δtotal NAND programs / Δhost programs. Returns 0 for an
// idle window and wafSaturated when only background programs ran.
func WindowWAFMilli(cur, prev *Page) int64 {
	hostDelta := cur.HostPagesProgrammed - prev.HostPagesProgrammed
	nandDelta := cur.PagesProgrammed - prev.PagesProgrammed
	if hostDelta <= 0 {
		if nandDelta > 0 {
			return wafSaturated
		}
		return 0
	}
	return nandDelta * 1000 / hostDelta
}

func TestWindowWAFMilli(t *testing.T) {
	prev := Page{HostPagesProgrammed: 100, PagesProgrammed: 150}
	cur := Page{HostPagesProgrammed: 200, PagesProgrammed: 400}
	if got := WindowWAFMilli(&cur, &prev); got != 2500 {
		t.Errorf("WAF milli = %d, want 2500", got)
	}
	idle := prev
	if got := WindowWAFMilli(&idle, &prev); got != 0 {
		t.Errorf("idle WAF = %d, want 0", got)
	}
	bg := Page{HostPagesProgrammed: 100, PagesProgrammed: 160}
	if got := WindowWAFMilli(&bg, &prev); got != wafSaturated {
		t.Errorf("background-only WAF = %d, want saturated", got)
	}
}

func TestScore(t *testing.T) {
	var s Score
	s.Add(true, true)
	s.Add(true, true)
	s.Add(true, false)
	s.Add(false, true)
	s.Add(false, false)
	if s.TP != 2 || s.FP != 1 || s.FN != 1 || s.TN != 1 {
		t.Fatalf("confusion = %+v", s)
	}
	if p := s.Precision(); p < 0.66 || p > 0.67 {
		t.Errorf("precision = %f", p)
	}
	if r := s.Recall(); r < 0.66 || r > 0.67 {
		t.Errorf("recall = %f", r)
	}
	if f := s.F1(); f < 0.66 || f > 0.67 {
		t.Errorf("f1 = %f", f)
	}
	var empty Score
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Error("empty score should be all zeros")
	}
}
