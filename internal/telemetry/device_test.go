package telemetry_test

import (
	"strings"
	"testing"

	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/telemetry"
)

// Device-facing contracts, through the collector path every CLI uses: the
// untraced path allocates nothing (CI alloc gate), a sampling page recorder
// stays within a fixed budget, and a restored snapshot re-anchors its
// sampling window on absolute boundaries so clones stream byte-identically.

// tdState mirrors the ssd package's zero-alloc harness: package-level so the
// measured closure captures nothing.
var tdState struct {
	dev     *ssd.Device
	pending int
	off     int64
	span    int64
}

func tdComplete() { tdState.pending-- }

func tdIdle() bool { return tdState.pending > 0 }

func tdWriteOne() {
	s := &tdState
	s.pending++
	if err := s.dev.WriteAsync(s.off, nil, 4096, tdComplete); err != nil {
		panic(err)
	}
	s.off += 4096
	if s.off >= s.span {
		s.off = 0
	}
	s.dev.Engine().RunWhile(tdIdle)
}

// tdDevice builds a small device and warms every pool to steady state.
func tdDevice(tr *obs.Tracer) *ssd.Device {
	cfg := ssd.MQSimBase()
	cfg.FTL.Seed = 1
	cfg.Trace = tr
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	tdState.dev = dev
	tdState.off = 0
	tdState.span = dev.Size() / 2 / 4096 * 4096
	tdState.pending = 0
	for i := 0; i < 12000; i++ {
		tdWriteOne()
	}
	return dev
}

// TestTelemetryDisabledZeroAlloc gates the zero-overhead-when-disabled
// contract: an untraced device (NewDevice's page-source bind no-ops on its
// nil tracer) must not allocate in steady state — the telemetry hook must
// cost nothing when unused.
func TestTelemetryDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	tdDevice(nil)
	if avg := testing.AllocsPerRun(2000, tdWriteOne); avg != 0 {
		t.Fatalf("telemetry-disabled WriteAsync allocated %.2f objects/op, want 0", avg)
	}
}

// TestTelemetryAttachedZeroAllocBudget pins the sampling-on cost: boundary
// crossings append a row (amortized growth) and the span-capped tracer keeps
// its attribution profiler alive, but the per-write budget stays fixed and
// small.
func TestTelemetryAttachedZeroAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	col := obs.NewCollector()
	col.SetRecordCap(1)
	col.SetTelemetry(sim.Millisecond)
	tdDevice(col.Cell("telemetry"))
	before := telemetryLines(t, col)
	const budget = 8.0
	if avg := testing.AllocsPerRun(2000, tdWriteOne); avg > budget {
		t.Fatalf("telemetry-attached WriteAsync allocated %.2f objects/op, budget %.0f", avg, budget)
	}
	if telemetryLines(t, col) == before {
		t.Fatal("no samples recorded while measured")
	}
}

// telemetryLines returns the number of rows in col's -telemetry stream.
func telemetryLines(t *testing.T, col *obs.Collector) int {
	t.Helper()
	var b strings.Builder
	if err := col.WriteTelemetryJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return strings.Count(b.String(), "\n")
}

// restoreStream restores img onto a fresh device traced by a fresh
// collector, runs n writes, and returns the collector's -telemetry stream.
func restoreStream(t *testing.T, img *ssd.DeviceState, n int) string {
	t.Helper()
	cfg := ssd.MQSimBase()
	cfg.FTL.Seed = 1
	col := obs.NewCollector()
	col.SetRecordCap(1)
	col.SetTelemetry(sim.Millisecond)
	cfg.Trace = col.Cell("clone")
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	dev.Restore(img)
	tdState.dev = dev
	tdState.off = 0
	tdState.span = dev.Size() / 2 / 4096 * 4096
	tdState.pending = 0
	for i := 0; i < n; i++ {
		tdWriteOne()
	}
	var b strings.Builder
	if err := col.WriteTelemetryJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTelemetrySnapshotRestore pins the snapshot semantics: a restored clone
// starts a fresh windowed stream (no samples inherited from the builder), the
// stream re-anchors on absolute interval boundaries, and two clones of the
// same image replay byte-identically.
func TestTelemetrySnapshotRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a device image")
	}
	builder := tdDevice(nil)
	done := false
	if err := builder.FlushAsync(func() { done = true }); err != nil {
		t.Fatal(err)
	}
	builder.Engine().RunWhile(func() bool { return !done })
	img := builder.Snapshot()

	a := restoreStream(t, img, 3000)
	b := restoreStream(t, img, 3000)
	if a == "" {
		t.Fatal("restored clone recorded no telemetry")
	}
	if a != b {
		t.Fatalf("clone streams differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	rows, err := telemetry.Parse(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if row.T%sim.Millisecond != 0 {
			t.Fatalf("row %d at %d not on an aligned boundary", i, row.T)
		}
	}
}
