package ssd

import (
	"testing"

	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
)

// The zero-allocation request-lifecycle contract (DESIGN.md §13): with
// tracing off, a steady-state host write or read must not allocate anywhere
// on its path — device descriptor, FTL request/page ops, ONFI bus state
// machines, engine nodes are all freelist-recycled, and every continuation
// is either a prebuilt closure or a static function carried by ScheduleArg.
// CI runs these (-run 'ZeroAlloc', no -race) as a regression gate.

// zaState is package-level so the measured closures capture nothing and
// compile to static funcvals (a capturing closure would itself allocate,
// polluting the measurement).
var zaState struct {
	dev     *Device
	pending int
	off     int64
	span    int64
}

func zaComplete() { zaState.pending-- }

func zaIdle() bool { return zaState.pending > 0 }

func zaWriteOne() {
	s := &zaState
	s.pending++
	if err := s.dev.WriteAsync(s.off, nil, 4096, zaComplete); err != nil {
		panic(err)
	}
	s.off += 4096
	if s.off >= s.span {
		s.off = 0
	}
	s.dev.Engine().RunWhile(zaIdle)
}

func zaReadOne() {
	s := &zaState
	s.pending++
	if err := s.dev.ReadAsync(s.off, nil, 4096, zaComplete); err != nil {
		panic(err)
	}
	s.off += 4096
	if s.off >= s.span {
		s.off = 0
	}
	s.dev.Engine().RunWhile(zaIdle)
}

// zaDevice builds a small device and warms every pool: enough 4 KiB writes
// to cycle the span three times, forcing cache eviction, GC, and freelist
// growth to their steady-state sizes, and writing every physical page at
// least once, so no copy-on-write mapping chunk is still unmaterialized.
func zaDevice(tr *obs.Tracer) *Device {
	cfg := MQSimBase()
	cfg.FTL.Seed = 1
	cfg.Trace = tr
	dev := NewDevice(sim.NewEngine(), cfg)
	zaState.dev = dev
	zaState.off = 0
	zaState.span = dev.Size() / 2 / 4096 * 4096
	zaState.pending = 0
	for i := int64(0); i < 3*zaState.span/4096; i++ {
		zaWriteOne()
	}
	return dev
}

// zaBatchLen is how many requests one measured run makes. AllocsPerRun
// reports whole allocations per run, rounded down, so a path allocating on
// only some requests (a garbage-collection victim every few dozen writes)
// would read as zero per request; counting a whole batch as one run reports
// every allocation.
const zaBatchLen = 2000

func zaWriteBatch() {
	for i := 0; i < zaBatchLen; i++ {
		zaWriteOne()
	}
}

func zaReadBatch() {
	for i := 0; i < zaBatchLen; i++ {
		zaReadOne()
	}
}

func TestWritePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	dev := zaDevice(nil)
	gc := dev.FTL().Counters().GCRuns
	if n := testing.AllocsPerRun(1, zaWriteBatch); n != 0 {
		t.Fatalf("%.0f allocations in %d steady-state WriteAsync calls, want 0", n, zaBatchLen)
	}
	if dev.FTL().Counters().GCRuns == gc {
		t.Fatal("no garbage collection ran during the measured batches")
	}
}

func TestReadPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	zaDevice(nil)
	for i := 0; i < 200; i++ {
		zaReadOne()
	}
	if n := testing.AllocsPerRun(1, zaReadBatch); n != 0 {
		t.Fatalf("%.0f allocations in %d steady-state ReadAsync calls, want 0", n, zaBatchLen)
	}
}

func zaRowSink(obs.AttrRow) {}

// TestCappedTracerWriteZeroAlloc pins the fleet's per-drive configuration:
// a tracer capped at one record keeps the latency profiler running, with a
// row sink taking each request's attribution row, and every span and event
// past the cap is only counted, so a steady-state write allocates nothing.
func TestCappedTracerWriteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	tr := obs.NewTracer("capped")
	tr.SetRecordCap(1)
	tr.Prof().SetRowSink(zaRowSink)
	zaDevice(tr)
	dropped := tr.DroppedRecords()
	if n := testing.AllocsPerRun(1, zaWriteBatch); n != 0 {
		t.Fatalf("%.0f allocations in %d steady-state WriteAsync calls on a full tracer, want 0", n, zaBatchLen)
	}
	if tr.Records() != 1 || tr.DroppedRecords() == dropped {
		t.Fatalf("tracer kept %d records and dropped %d more; want the cap's 1 kept and the rest dropped",
			tr.Records(), tr.DroppedRecords()-dropped)
	}
}

// TestTracedPathZeroAllocBudget pins the tracing-on cost: spans, events and
// attribution records do allocate (the tracer buffers them for export), but
// the budget is fixed and small — growth here means a closure or descriptor
// leaked back into the request path.
func TestTracedPathZeroAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	col := obs.NewCollector()
	zaDevice(col.Cell("zeroalloc"))
	// Measured ~1 alloc/op (the span's attribute slice); headroom covers
	// amortized record-buffer growth.
	const budget = 8.0
	if avg := testing.AllocsPerRun(2000, zaWriteOne); avg > budget {
		t.Fatalf("traced WriteAsync allocated %.2f objects/op, budget %.0f", avg, budget)
	}
}
