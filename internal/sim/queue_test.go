package sim

import (
	"math/rand"
	"testing"
)

// --- Cross-check property test -------------------------------------------
//
// Replays randomized schedule/cancel/step programs against the intrusive
// 4-ary queue and the original container/heap scheduler (refheap_test.go)
// and demands identical firing order and final clock. Callbacks spawn
// children deterministically from their id, so node recycling inside Step —
// the freelist's hottest path — is exercised on every program.

func runRandomProgram(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	r := &refEngine{}

	var gotNew, gotRef []int
	var handles []Event
	var refHandles []*refEvent
	idNew, idRef := 0, 0

	var addNew func(delay Time, depth int)
	addNew = func(delay Time, depth int) {
		id := idNew
		idNew++
		h := e.Schedule(delay, func() {
			gotNew = append(gotNew, id)
			if depth < 2 && id%3 == 0 {
				addNew(Time(id%37), depth+1)
			}
		})
		handles = append(handles, h)
	}
	var addRef func(delay Time, depth int)
	addRef = func(delay Time, depth int) {
		id := idRef
		idRef++
		h := r.schedule(delay, func() {
			gotRef = append(gotRef, id)
			if depth < 2 && id%3 == 0 {
				addRef(Time(id%37), depth+1)
			}
		})
		refHandles = append(refHandles, h)
	}

	nOps := 10 + rng.Intn(40)
	for i := 0; i < nOps; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			d := Time(rng.Intn(100))
			addNew(d, 0)
			addRef(d, 0)
		case 5, 6:
			if len(handles) > 0 {
				j := rng.Intn(len(handles))
				handles[j].Cancel() // stale handles are no-ops
				refHandles[j].cancel()
			}
		default:
			e.Step()
			r.step()
		}
	}
	e.Run()
	r.run()

	if len(gotNew) != len(gotRef) {
		t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotNew), len(gotRef))
	}
	for i := range gotNew {
		if gotNew[i] != gotRef[i] {
			t.Fatalf("seed %d: firing order diverges at %d: got id %d, reference id %d",
				seed, i, gotNew[i], gotRef[i])
		}
	}
	if len(gotNew) > 0 && e.Now() != r.now {
		t.Fatalf("seed %d: final clock %d, reference %d", seed, e.Now(), r.now)
	}
}

func TestQueueMatchesReferenceProperty(t *testing.T) {
	sequences := 10000
	if testing.Short() {
		sequences = 500
	}
	for s := 0; s < sequences; s++ {
		runRandomProgram(t, int64(s)+1)
	}
}

// --- Freelist lifecycle ---------------------------------------------------

// A fired event's handle goes stale: Cancel must not kill the slot's next
// tenant, and the slot must actually be reused (that reuse is the whole
// point of the freelist).
func TestStaleCancelAfterFireIsNoOp(t *testing.T) {
	e := NewEngine()
	firedA := false
	a := e.Schedule(10, func() { firedA = true })
	e.Run()
	if !firedA {
		t.Fatal("event did not fire")
	}
	firedB := false
	b := e.Schedule(10, func() { firedB = true })
	if a.n != b.n {
		t.Fatal("freelist did not recycle the fired node")
	}
	a.Cancel() // stale generation: must not cancel b
	if !b.Pending() {
		t.Fatal("stale Cancel removed the recycled slot's new event")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if !firedB {
		t.Fatal("recycled event did not fire")
	}
}

// Cancel twice: the second is a no-op even after the node is re-tenanted.
func TestDoubleCancelAcrossReuse(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(10, func() {})
	a.Cancel()
	a.Cancel() // immediate double-cancel
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after double cancel, want 0", e.Pending())
	}
	fired := false
	b := e.Schedule(10, func() { fired = true })
	if a.n != b.n {
		t.Fatal("freelist did not recycle the canceled node")
	}
	a.Cancel() // stale: b holds the slot now
	if !b.Pending() {
		t.Fatal("stale double-cancel removed the new tenant")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// Handle state across generations: Pending/Time track exactly one tenancy of
// the underlying slot, and a stale handle cannot touch the next tenant.
func TestHandleGenerations(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(10, func() {})
	if !a.Pending() || a.Time() != 10 {
		t.Fatalf("pending handle: Pending=%v Time=%d", a.Pending(), a.Time())
	}
	a.Cancel()
	if a.Pending() || a.Time() != 0 {
		t.Fatalf("canceled handle: Pending=%v Time=%d", a.Pending(), a.Time())
	}
	fired := false
	b := e.Schedule(20, func() { fired = true }) // reuses a's node, next generation
	if !b.Pending() || b.Time() != 20 {
		t.Fatalf("reused handle: Pending=%v Time=%d", b.Pending(), b.Time())
	}
	a.Cancel() // stale handle: must not cancel b
	if a.Pending() || a.Time() != 0 || !b.Pending() {
		t.Fatalf("stale handle reached the slot's next tenant: a.Pending=%v a.Time=%d b.Pending=%v",
			a.Pending(), a.Time(), b.Pending())
	}
	e.Run()
	if !fired || b.Pending() || b.Time() != 0 {
		t.Fatalf("fired handle: fired=%v Pending=%v Time=%d", fired, b.Pending(), b.Time())
	}
	var zero Event
	zero.Cancel() // zero handle: all methods no-ops
	if zero.Pending() || zero.Time() != 0 {
		t.Fatal("zero Event is not inert")
	}
}

// --- Zero-allocation contract --------------------------------------------

// Steady-state Schedule+Step must not allocate: every modeled latency in the
// simulator is one such round trip, so an allocation here is a per-event tax
// on the whole reproduction. CI runs this test explicitly.
func TestSteadyStateScheduleStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(100, tick) }
	e.Schedule(0, tick)
	for i := 0; i < 64; i++ { // warm the heap slice and freelist
		e.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Fatalf("steady-state Schedule+Step allocates %.1f objects/op, want 0", allocs)
	}
}

// Schedule+Cancel churn (the FTL idle-timer supersede pattern) must also be
// allocation-free once the freelist is warm.
func TestScheduleCancelChurnZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	e := NewEngine()
	fn := func() {}
	e.Schedule(Second, fn).Cancel() // warm one freelist node
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(Second, fn).Cancel()
	}); allocs != 0 {
		t.Fatalf("Schedule+Cancel churn allocates %.1f objects/op, want 0", allocs)
	}
}

// ScheduleArg is the closure-free scheduling form the pooled request
// descriptors ride on: a top-level callback plus a pointer-shaped arg must
// not allocate, even from a cold freelist for the interface conversion.
func TestScheduleArgStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	e := NewEngine()
	type req struct{ n int }
	r := &req{}
	var tick func(any)
	tick = func(arg any) {
		arg.(*req).n++
		e.ScheduleArg(100, tick, arg)
	}
	e.ScheduleArg(0, tick, r)
	for i := 0; i < 64; i++ {
		e.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Fatalf("steady-state ScheduleArg+Step allocates %.1f objects/op, want 0", allocs)
	}
	if r.n < 1000 {
		t.Fatalf("callback ran %d times, want >= 1000", r.n)
	}
}

// ScheduleArg shares Schedule's seq counter: same-instant events fire in
// submission order regardless of which entry point queued them.
func TestScheduleArgOrderingMatchesSchedule(t *testing.T) {
	e := NewEngine()
	var got []int
	push := func(arg any) { got = append(got, arg.(int)) }
	e.Schedule(10, func() { got = append(got, 0) })
	e.ScheduleArg(10, push, 1)
	e.Schedule(10, func() { got = append(got, 2) })
	e.ScheduleArg(10, push, 3)
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("firing order %v, want 0..3 in submission order", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("fired %d events, want 4", len(got))
	}
}

// An AtArg event must be cancelable exactly like an At event, and the
// recycled node must not leak the arg callback into the next tenancy.
func TestScheduleArgCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.ScheduleArg(Second, func(any) { fired = true }, 7)
	ev.Cancel()
	if ev.Pending() || e.Pending() != 0 {
		t.Fatal("canceled ScheduleArg event is still pending")
	}
	ran := false
	e.Schedule(Second, func() { ran = true }) // reuses the freed node
	e.Run()
	if fired {
		t.Fatal("canceled ScheduleArg callback fired")
	}
	if !ran {
		t.Fatal("follow-up event on the recycled node did not fire")
	}
}

// --- RunUntil with eager cancellation -------------------------------------

// Pin the behavior the simplified RunUntil relies on: Cancel removes events
// eagerly, so canceling the queue head from inside a running event leaves
// the head always-live and RunUntil needs no canceled-skip loop.
func TestRunUntilCancelHeadMidRun(t *testing.T) {
	e := NewEngine()
	var fired []Time
	var ev20 Event
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		ev20.Cancel() // ev20 is the queue head at this instant
	})
	ev20 = e.Schedule(20, func() { fired = append(fired, e.Now()) })
	e.Schedule(30, func() { fired = append(fired, e.Now()) })
	e.RunUntil(25)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("RunUntil(25) fired %v, want [10]", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %d after RunUntil(25), want 25", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (the t=30 event)", e.Pending())
	}
	e.Run()
	if len(fired) != 2 || fired[1] != 30 {
		t.Fatalf("after drain fired %v, want [10 30]", fired)
	}
}

// --- Microbenchmarks ------------------------------------------------------

// BenchmarkEngineScheduleCancel measures the supersede churn path: every
// iteration replaces a far-future timer, exercising push, remove, and the
// freelist.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// A handful of background events so remove() works on a non-trivial heap.
	for i := 0; i < 32; i++ {
		e.Schedule(Time(1000+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Second, fn).Cancel()
	}
}
