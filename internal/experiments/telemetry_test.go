package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
)

// fig3Exports runs fig3 at Quick scale with a collector installed whose
// -timeline export samples every timelineMS and -telemetry export every
// telemetryMS of simulated time (0 = that export off).
func fig3Exports(t *testing.T, timelineMS, telemetryMS sim.Time) *obs.Collector {
	t.Helper()
	col := obs.NewCollector()
	col.SetTimeline(timelineMS * sim.Millisecond)
	col.SetTelemetry(telemetryMS * sim.Millisecond)
	prev := observer()
	SetObserver(col)
	defer SetObserver(prev)
	withPool(&runner.Pool{Workers: 2}, func() { Fig3TailLatency(Quick, 42) })
	return col
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// One fig3 cell's transparency stream and metrics dump, pinned byte for byte
// at the default -telemetry-ms: refactors of the sampling pipeline must not
// move a single byte of either export.
func TestFig3CellExportsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 grid regeneration")
	}
	const (
		label       = "fig3/baseline/4KB"
		wantTele    = "5acfc3299cb4556311b0d5e27f84a34a821ac7a076776213560de1b1f4925856"
		wantMetrics = "005caf27d9aacde0a6b77132e0c27c95646c8068e508ee21dc2a76ce8eddec41"
	)
	col := fig3Exports(t, 0, 1)
	var all, tb, mb bytes.Buffer
	if err := col.WriteTelemetryJSONL(&all); err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(all.Bytes(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"cell":"`+label+`",`)) {
			tb.Write(line)
		}
	}
	if err := col.Cell(label).WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	if tb.Len() == 0 || mb.Len() == 0 {
		t.Fatalf("%s: empty telemetry (%d B) or metrics (%d B)", label, tb.Len(), mb.Len())
	}
	if got := sha256Hex(tb.Bytes()); got != wantTele {
		t.Errorf("%s telemetry JSONL sha256 = %s, want %s", label, got, wantTele)
	}
	if got := sha256Hex(mb.Bytes()); got != wantMetrics {
		t.Errorf("%s metrics sha256 = %s, want %s", label, got, wantMetrics)
	}
}

// pageRow is one exported log-page row: its (cell, t) key, its timestamp,
// and every other column rendered as text.
type pageRow struct {
	key    string
	cell   string
	t      sim.Time
	fields map[string]string
}

// timelineRows parses the collector's -timeline CSV.
func timelineRows(t *testing.T, col *obs.Collector) []pageRow {
	t.Helper()
	var b strings.Builder
	if err := col.WriteTimelineCSV(&b); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := recs[0]
	if header[0] != "cell" || header[1] != "t_ns" {
		t.Fatalf("CSV header starts %q, want cell,t_ns", header[:2])
	}
	var rows []pageRow
	for _, rec := range recs[1:] {
		at, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		r := pageRow{key: rec[0] + "@" + rec[1], cell: rec[0], t: at, fields: map[string]string{}}
		for i := 2; i < len(rec); i++ {
			r.fields[header[i]] = rec[i]
		}
		rows = append(rows, r)
	}
	return rows
}

// telemetryRows parses the collector's -telemetry JSONL stream.
func telemetryRows(t *testing.T, col *obs.Collector) []pageRow {
	t.Helper()
	var b strings.Builder
	if err := col.WriteTelemetryJSONL(&b); err != nil {
		t.Fatal(err)
	}
	var rows []pageRow
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		dec := json.NewDecoder(strings.NewReader(line))
		dec.UseNumber()
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			t.Fatal(err)
		}
		at, err := obj["t"].(json.Number).Int64()
		if err != nil {
			t.Fatal(err)
		}
		cell := fmt.Sprint(obj["cell"])
		r := pageRow{key: fmt.Sprintf("%s@%d", cell, at), cell: cell, t: at, fields: map[string]string{}}
		for k, v := range obj {
			if k != "cell" && k != "t" {
				r.fields[k] = fmt.Sprint(v)
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// equalRows reports the first difference between two row sequences.
func equalRows(got, want []pageRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].key != want[i].key {
			return fmt.Errorf("row %d is %s, want %s", i, got[i].key, want[i].key)
		}
		if len(got[i].fields) != len(want[i].fields) {
			return fmt.Errorf("%s: %d columns, want %d", got[i].key, len(got[i].fields), len(want[i].fields))
		}
		for k, v := range want[i].fields {
			if got[i].fields[k] != v {
				return fmt.Errorf("%s: %s = %q, want %q", got[i].key, k, got[i].fields[k], v)
			}
		}
	}
	return nil
}

// onGrid returns the rows whose timestamps are multiples of every ms.
func onGrid(rows []pageRow, every sim.Time) []pageRow {
	var out []pageRow
	for _, r := range rows {
		if r.t%(every*sim.Millisecond) == 0 {
			out = append(out, r)
		}
	}
	return out
}

// cellsOf returns the distinct cells of rows, in order of appearance.
func cellsOf(rows []pageRow) []string {
	var cells []string
	for _, r := range rows {
		if len(cells) == 0 || cells[len(cells)-1] != r.cell {
			cells = append(cells, r.cell)
		}
	}
	return cells
}

// The -timeline CSV and the -telemetry JSONL are two renderings of one
// per-cell log-page recorder: they list the same cells, and at any pair of
// intervals — equal, one a multiple of the other, or neither, with a common
// divisor of 1 ms or 2 ms — each is exactly the subset of a 1 ms stream that
// falls on its own grid.
func TestTimelineCSVMatchesTelemetryJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 grid regeneration")
	}
	var ref []pageRow // the 1 ms stream, from the first case
	for _, c := range []struct{ timeline, telemetry sim.Time }{{1, 1}, {10, 1}, {3, 2}, {4, 6}} {
		col := fig3Exports(t, c.timeline, c.telemetry)
		csvRows, jsonRows := timelineRows(t, col), telemetryRows(t, col)
		if ref == nil {
			ref = jsonRows
		}
		name := fmt.Sprintf("%d ms timeline, %d ms telemetry", c.timeline, c.telemetry)
		if len(csvRows) == 0 || len(jsonRows) == 0 {
			t.Fatalf("%s: %d timeline rows, %d telemetry rows", name, len(csvRows), len(jsonRows))
		}
		if got, want := cellsOf(csvRows), cellsOf(jsonRows); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: timeline cells %v, telemetry cells %v", name, got, want)
		}
		if err := equalRows(csvRows, onGrid(ref, c.timeline)); err != nil {
			t.Errorf("%s: timeline vs the 1 ms stream on its grid: %v", name, err)
		}
		if err := equalRows(jsonRows, onGrid(ref, c.telemetry)); err != nil {
			t.Errorf("%s: telemetry vs the 1 ms stream on its grid: %v", name, err)
		}
	}
}

// The transparency experiment forecasts from its own 1 ms recorder, but its
// exported -telemetry rows come from the cell tracer's page recorder like
// every other cell's, so they follow the collector's interval; the table is
// unaffected either way.
func TestTransparencyTelemetryFollowsCollector(t *testing.T) {
	if testing.Short() {
		t.Skip("transparency grid regeneration")
	}
	var plain string
	withPool(&runner.Pool{Workers: 2}, func() { plain = Transparency(Quick, 42).Table() })

	col := obs.NewCollector()
	col.SetTelemetry(3 * sim.Millisecond)
	prev := observer()
	SetObserver(col)
	defer SetObserver(prev)
	var traced string
	withPool(&runner.Pool{Workers: 2}, func() { traced = Transparency(Quick, 42).Table() })
	if traced != plain {
		t.Errorf("table changed under a collector:\n%s\nwant\n%s", traced, plain)
	}

	rows := telemetryRows(t, col)
	if got, want := len(cellsOf(rows)), len(Fig3Configs()); got != want {
		t.Fatalf("telemetry lists %d cells, want one per config (%d)", got, want)
	}
	for i, r := range rows {
		if !strings.HasPrefix(r.cell, "transparency/") {
			t.Fatalf("row %s is not a transparency cell's", r.key)
		}
		if r.t%(3*sim.Millisecond) != 0 {
			t.Fatalf("row %s is off the collector's 3 ms grid", r.key)
		}
		if i > 0 && rows[i-1].cell == r.cell && r.t-rows[i-1].t != 3*sim.Millisecond {
			t.Fatalf("rows %s and %s are not 3 ms apart", rows[i-1].key, r.key)
		}
	}
}
