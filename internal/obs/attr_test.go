package obs

import (
	"strings"
	"testing"

	"ssdtp/internal/sim"
)

// attrHarness returns an engine with a tracer bound to it and the tracer's
// profiler, the setup every attribution site runs under.
func attrHarness() (*sim.Engine, *Tracer, *Profiler) {
	eng := sim.NewEngine()
	tr := NewTracer("cell")
	tr.BindEngine(eng)
	return eng, tr, tr.Prof()
}

// The core attribution invariant: phase charges sum to the end-to-end latency
// exactly, with each simulated interval charged to the phase that was current
// when it elapsed.
func TestAttrExactDecomposition(t *testing.T) {
	eng, _, p := attrHarness()
	a := p.BeginReq(PhaseHostQueue)
	eng.Schedule(3*sim.Microsecond, func() { a.Mark(PhaseDispatch) })
	eng.Schedule(5*sim.Microsecond, func() { a.Mark(PhaseChanWait) })
	eng.Schedule(11*sim.Microsecond, func() { a.Mark(PhaseNAND) })
	eng.Schedule(31*sim.Microsecond, func() { a.End() })
	eng.Run()

	rows := p.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Total != 31*sim.Microsecond {
		t.Fatalf("total = %d, want 31µs", r.Total)
	}
	want := [NumPhases]sim.Time{
		PhaseHostQueue: 3 * sim.Microsecond,
		PhaseDispatch:  2 * sim.Microsecond,
		PhaseChanWait:  6 * sim.Microsecond,
		PhaseNAND:      20 * sim.Microsecond,
	}
	if r.Phases != want {
		t.Fatalf("phases = %v, want %v", r.Phases, want)
	}
	var sum sim.Time
	for _, v := range r.Phases {
		sum += v
	}
	if sum != r.Total {
		t.Fatalf("phase sum %d != total %d", sum, r.Total)
	}
}

// MarkCarved splits one elapsed interval between two phases without moving
// the transition point, and clamps the carve to what actually elapsed.
func TestMarkCarved(t *testing.T) {
	eng, _, p := attrHarness()
	a := p.BeginReq(PhaseNAND)
	eng.Schedule(10*sim.Microsecond, func() {
		// 10µs elapsed in NAND; carve 4µs of it out as suspend overhead.
		a.MarkCarved(PhaseGCStall, 4*sim.Microsecond, PhaseNAND)
	})
	eng.Schedule(12*sim.Microsecond, func() {
		// Only 2µs elapsed; an oversized carve must clamp, not go negative.
		a.MarkCarved(PhaseGCStall, sim.Millisecond, PhaseNAND)
	})
	eng.Schedule(13*sim.Microsecond, func() { a.End() })
	eng.Run()

	r := p.Rows()[0]
	if r.Phases[PhaseGCStall] != 6*sim.Microsecond {
		t.Fatalf("gc_stall = %d, want 6µs", r.Phases[PhaseGCStall])
	}
	if r.Phases[PhaseNAND] != 7*sim.Microsecond {
		t.Fatalf("nand = %d, want 7µs", r.Phases[PhaseNAND])
	}
	if r.Total != 13*sim.Microsecond {
		t.Fatalf("total = %d, want 13µs", r.Total)
	}
}

// An admission stall spanning GC start/stop transitions must charge each
// cause for exactly the interval it was active: the GCBusy 0↔1 edges re-mark
// every stalled request at the transition instant.
func TestStallRemarkOnGCTransition(t *testing.T) {
	eng, _, p := attrHarness()
	a := p.BeginReq(PhaseDispatch)
	eng.Schedule(1*sim.Microsecond, func() { p.StallEnter(a) }) // no GC: cache_stall
	eng.Schedule(4*sim.Microsecond, func() { p.GCBusy(1) })     // → gc_stall
	eng.Schedule(9*sim.Microsecond, func() { p.GCBusy(2) })     // no edge: stays gc_stall
	eng.Schedule(10*sim.Microsecond, func() { p.GCBusy(-3) })   // → cache_stall
	eng.Schedule(12*sim.Microsecond, func() { p.StallExit(a, PhaseCacheHit) })
	eng.Schedule(13*sim.Microsecond, func() { a.End() })
	eng.Run()

	r := p.Rows()[0]
	want := [NumPhases]sim.Time{
		PhaseDispatch:   1 * sim.Microsecond,
		PhaseCacheStall: 5 * sim.Microsecond, // 1..4 and 10..12
		PhaseGCStall:    6 * sim.Microsecond, // 4..10
		PhaseCacheHit:   1 * sim.Microsecond, // 12..13
	}
	if r.Phases != want {
		t.Fatalf("phases = %v, want %v", r.Phases, want)
	}
}

// A request that ends while still admission-stalled (e.g. a trim absorbed
// mid-backpressure) must unregister itself; a later GC transition touching
// the freed ReqAttr would corrupt the freelist.
func TestEndWhileStalledUnregisters(t *testing.T) {
	eng, _, p := attrHarness()
	a := p.BeginReq(PhaseDispatch)
	b := p.BeginReq(PhaseDispatch)
	eng.Schedule(1*sim.Microsecond, func() { p.StallEnter(a); p.StallEnter(b) })
	eng.Schedule(2*sim.Microsecond, func() { a.End() })
	eng.Schedule(3*sim.Microsecond, func() { p.GCBusy(1) }) // must re-mark only b
	eng.Schedule(5*sim.Microsecond, func() { p.StallExit(b, PhaseCacheHit); b.End() })
	eng.Run()

	rows := p.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if got := rows[1].Phases[PhaseGCStall]; got != 2*sim.Microsecond {
		t.Fatalf("b gc_stall = %d, want 2µs", got)
	}
}

// TailShares must report each phase's fraction of the slowest requests'
// summed latency — the fig3 acceptance metric.
func TestTailShares(t *testing.T) {
	eng, _, p := attrHarness()
	// 98 fast requests, pure NAND; two slow outliers dominated by GC. The p99
	// threshold lands on the outliers' latency, so the tail is exactly them.
	for i := 0; i < 98; i++ {
		a := p.BeginReq(PhaseNAND)
		eng.Schedule(sim.Microsecond, func() { a.End() })
		eng.Run()
	}
	for i := 0; i < 2; i++ {
		a := p.BeginReq(PhaseGCStall)
		eng.Schedule(900*sim.Microsecond, func() { a.Mark(PhaseNAND) })
		eng.Schedule(1000*sim.Microsecond, func() { a.End() })
		eng.Run()
	}

	shares, thresh := p.TailShares(0.01)
	if thresh != 1000*sim.Microsecond {
		t.Fatalf("tail threshold = %d, want 1000µs", thresh)
	}
	if shares[PhaseGCStall] != 900_000 {
		t.Fatalf("gc_stall share = %d ppm, want 900000", shares[PhaseGCStall])
	}
	if shares[PhaseNAND] != 100_000 {
		t.Fatalf("nand share = %d ppm, want 100000", shares[PhaseNAND])
	}
}

// Beyond the row cap, requests keep accumulating into the totals but drop
// their retained row, and the drop count is exported.
func TestAttrRowCap(t *testing.T) {
	eng, tr, p := attrHarness()
	p.rowCap = 2
	for i := 0; i < 5; i++ {
		a := p.BeginReq(PhaseNAND)
		eng.Schedule(sim.Microsecond, func() { a.End() })
		eng.Run()
	}
	if len(p.Rows()) != 2 {
		t.Fatalf("rows = %d, want 2 (capped)", len(p.Rows()))
	}
	if p.Requests() != 5 {
		t.Fatalf("requests = %d, want 5", p.Requests())
	}
	if p.totals[PhaseNAND] != 5*sim.Microsecond {
		t.Fatalf("nand total = %d, want 5µs", p.totals[PhaseNAND])
	}
	var sb strings.Builder
	if err := tr.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `ssdtp_attr_dropped_rows_total{cell="cell"} 3`) {
		t.Fatalf("missing dropped-rows metric:\n%s", sb.String())
	}
}

// The disabled path — a nil tracer, which is what every cell runs with unless
// -trace/-metrics is given — must cost zero allocations through the entire
// attribution surface. CI runs this as a regression gate alongside the
// scheduler's zero-alloc tests.
func TestAttrDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	var tr *Tracer
	p := tr.Prof()
	allocs := testing.AllocsPerRun(1000, func() {
		a := p.BeginReq(PhaseHostQueue)
		p.SetHandoff(a)
		a = p.TakeHandoff()
		a.Mark(PhaseDispatch)
		p.SetCur(a)
		p.Cur().Mark(PhaseCacheHit)
		p.SetCur(nil)
		p.SetOp(a)
		p.TakeOp().MarkCarved(PhaseGCStall, sim.Microsecond, PhaseNAND)
		p.StallEnter(a)
		p.GCBusy(1)
		p.GCBusy(-1)
		p.StallExit(a, PhaseCacheHit)
		_ = p.StallPhase()
		a.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled attribution path allocates %.1f objects/op, want 0", allocs)
	}
}

// The engine hook runs on every fired event of a traced cell. With no
// sampling window, and with a page recorder enabled but no page source bound
// (a cell whose device never binds one), it must not allocate.
func TestEngineHookZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	for _, tc := range []struct {
		name  string
		pages sim.Time
	}{{"no windows", 0}, {"page recorder without source", sim.Microsecond}} {
		eng := sim.NewEngine()
		tr := NewTracer("hook")
		tr.SamplePages(tc.pages)
		tr.BindEngine(eng)
		var tick func()
		tick = func() { eng.Schedule(100, tick) }
		eng.Schedule(0, tick)
		for i := 0; i < 64; i++ { // warm the heap slice and freelist
			eng.Step()
		}
		if allocs := testing.AllocsPerRun(1000, func() { eng.Step() }); allocs != 0 {
			t.Errorf("%s: engine hook allocates %.1f objects/event, want 0", tc.name, allocs)
		}
		if tr.EventsFired() == 0 {
			t.Errorf("%s: hook not installed", tc.name)
		}
	}
}

// A suspended tracer must behave like a disabled one for new requests
// (prefill traffic is not attributed) while still tracking the GC gauge,
// which is simulation state a post-Resume request needs to see.
func TestAttrSuspendedInert(t *testing.T) {
	_, tr, p := attrHarness()
	tr.Suspend()
	if a := p.BeginReq(PhaseHostQueue); a != nil {
		t.Fatal("BeginReq under suspension returned a live ReqAttr")
	}
	p.GCBusy(1)
	tr.Resume()
	if got := p.StallPhase(); got != PhaseGCStall {
		t.Fatalf("StallPhase after suspended GCBusy = %v, want gc_stall", got)
	}
	p.GCBusy(-1)
	if p.Requests() != 0 {
		t.Fatal("suspended traffic was attributed")
	}
}
