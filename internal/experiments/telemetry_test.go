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
	"ssdtp/internal/telemetry"
)

// fig3Exports runs fig3 at Quick scale with a collector and a telemetry set
// installed, the collector sampling a timeline every timelineMS (0 = none)
// and the set every telemetryMS of simulated time.
func fig3Exports(t *testing.T, timelineMS, telemetryMS sim.Time) (*obs.Collector, *telemetry.Set) {
	t.Helper()
	col := obs.NewCollector()
	col.SetTimeline(timelineMS * sim.Millisecond)
	prev := observer()
	SetObserver(col)
	defer SetObserver(prev)
	ts := telemetry.NewSet(telemetryMS * sim.Millisecond)
	prevTS := telemetrySet()
	SetTelemetry(ts)
	defer SetTelemetry(prevTS)
	withPool(&runner.Pool{Workers: 2}, func() { Fig3TailLatency(Quick, 42) })
	return col, ts
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
	col, ts := fig3Exports(t, 0, 1)
	var tb, mb bytes.Buffer
	if err := ts.Cell(label).WriteJSONL(&tb); err != nil {
		t.Fatal(err)
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
		r := pageRow{key: rec[0] + "@" + rec[1], t: at, fields: map[string]string{}}
		for i := 2; i < len(rec); i++ {
			r.fields[header[i]] = rec[i]
		}
		rows = append(rows, r)
	}
	return rows
}

// telemetryRows parses the set's JSONL stream.
func telemetryRows(t *testing.T, ts *telemetry.Set) []pageRow {
	t.Helper()
	var b strings.Builder
	if err := ts.WriteJSONL(&b); err != nil {
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
		r := pageRow{key: fmt.Sprintf("%s@%d", obj["cell"], at), t: at, fields: map[string]string{}}
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

// The -timeline CSV is a view of the transparency log page: at equal
// intervals its rows are the JSONL rows, and at a coarser interval they are
// exactly the JSONL rows that fall on its boundaries.
func TestTimelineCSVMatchesTelemetryJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 grid regeneration")
	}
	col, ts := fig3Exports(t, 1, 1)
	csvRows, jsonRows := timelineRows(t, col), telemetryRows(t, ts)
	if len(csvRows) == 0 {
		t.Fatal("no timeline rows")
	}
	if err := equalRows(csvRows, jsonRows); err != nil {
		t.Errorf("1 ms timeline vs 1 ms telemetry: %v", err)
	}

	col, ts = fig3Exports(t, 10, 1)
	var onGrid []pageRow
	for _, r := range telemetryRows(t, ts) {
		if r.t%(10*sim.Millisecond) == 0 {
			onGrid = append(onGrid, r)
		}
	}
	if len(onGrid) == 0 {
		t.Fatal("no telemetry rows on the 10 ms grid")
	}
	if err := equalRows(timelineRows(t, col), onGrid); err != nil {
		t.Errorf("10 ms timeline vs 1 ms telemetry on the 10 ms grid: %v", err)
	}
}
