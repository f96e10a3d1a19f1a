package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if ev.Pending() || ev.Time() != 0 {
		t.Error("canceled handle still reports a pending event")
	}
}

// Regression: a canceled event must leave the queue immediately — the FTL
// idle patrol supersedes a far-future timer on every host request, and the
// old behaviour (mark-and-skip-at-pop) accumulated every superseded event
// plus its captured closure until the far-future pop.
func TestSupersededTimersDoNotAccumulate(t *testing.T) {
	e := NewEngine()
	var ev Event // zero Event: Cancel is a no-op
	for i := 0; i < 10000; i++ {
		ev.Cancel()
		ev = e.Schedule(30*60*Second, func() {})
		if got := e.Pending(); got != 1 {
			t.Fatalf("Pending = %d after supersede %d, want 1", got, i)
		}
	}
}

// Regression: Cancel must drop the callback so whatever the closure
// captured becomes collectable while the event's far-future fire time is
// still pending.
func TestCancelReleasesClosure(t *testing.T) {
	e := NewEngine()
	collected := make(chan struct{})
	func() {
		big := make([]byte, 1<<20)
		runtime.SetFinalizer(&big[0], func(*byte) { close(collected) })
		ev := e.Schedule(30*60*Second, func() { _ = big[0] })
		ev.Cancel()
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("canceled event still pins its closure after GC")
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestPendingCountsLiveEventsOnly(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(10, func() {})
	b := e.Schedule(20, func() {})
	e.Schedule(30, func() {})
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	b.Cancel()
	if e.Pending() != 2 {
		t.Errorf("Pending = %d after one cancel, want 2", e.Pending())
	}
	b.Cancel() // double-cancel is a no-op
	a.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending = %d after two cancels, want 1", e.Pending())
	}
}

// Canceling an event in the middle of the heap must not disturb the firing
// order of the survivors.
func TestCancelMidHeapPreservesOrder(t *testing.T) {
	e := NewEngine()
	var fired []Time
	var evs []Event
	for _, d := range []Time{50, 10, 30, 20, 40} {
		evs = append(evs, e.Schedule(d, func() { fired = append(fired, e.Now()) }))
	}
	evs[2].Cancel() // the t=30 event
	e.Run()
	want := []Time{10, 20, 40, 50}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// RunWhile's contract: false when cond flipped (normal completion), true
// when the queue drained with cond still holding (the awaited event can no
// longer arrive).
func TestRunWhileContract(t *testing.T) {
	e := NewEngine()
	done := false
	e.Schedule(10, func() { done = true })
	e.Schedule(20, func() {})
	if e.RunWhile(func() bool { return !done }) {
		t.Error("RunWhile = true though cond flipped")
	}
	if e.Now() != 10 {
		t.Errorf("RunWhile ran past the flipping event: now=%d", e.Now())
	}

	stuck := false
	if !e.RunWhile(func() bool { return !stuck }) {
		t.Error("RunWhile = false though the queue drained with cond still true")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		e.Schedule(-5, func() {
			if e.Now() != 100 {
				t.Errorf("negative delay fired at %d, want 100", e.Now())
			}
		})
	})
	e.Run()
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("At() in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(10, func() { count++ })
	e.Schedule(20, func() { count++ })
	e.Schedule(30, func() { count++ })
	e.RunUntil(25)
	if count != 2 {
		t.Errorf("fired %d events by t=25, want 2", count)
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %d after RunUntil(25), want 25", e.Now())
	}
	e.Run()
	if count != 3 {
		t.Errorf("fired %d events total, want 3", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(1, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Errorf("Now() = %d, want 99", e.Now())
	}
}

// Property: however delays are drawn, events fire in sorted order of their
// absolute times.
func TestFireOrderIsSortedProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// use holds r for d: it acquires r, runs start (which may be nil), releases
// r d later and then runs done (which may be nil).
func use(r *Resource, d Time, start, done func()) {
	r.Acquire(func() {
		if start != nil {
			start()
		}
		r.eng.Schedule(d, func() {
			r.Release()
			if done != nil {
				done()
			}
		})
	})
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		use(r, 10, func() { order = append(order, i) }, nil)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("resource granted out of order: %v", order)
		}
	}
	if r.Busy() {
		t.Error("resource still busy after drain")
	}
	if got := r.BusyTime(); got != 50 {
		t.Errorf("BusyTime = %d, want 50", got)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var ends []Time
	for i := 0; i < 3; i++ {
		use(r, 100, nil, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Errorf("use %d ended at %d, want %d", i, ends[i], want[i])
		}
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release of idle resource did not panic")
		}
	}()
	NewResource(NewEngine()).Release()
}

// Property: interleaved random acquire/hold patterns never exceed unit
// capacity (at most one holder at a time).
func TestResourceUnitCapacityProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewResource(e)
		holders := 0
		ok := true
		for i := 0; i < int(n%40)+1; i++ {
			hold := Time(rng.Intn(50) + 1)
			e.Schedule(Time(rng.Intn(100)), func() {
				r.Acquire(func() {
					holders++
					if holders > 1 {
						ok = false
					}
					e.Schedule(hold, func() {
						holders--
						r.Release()
					})
				})
			})
		}
		e.Run()
		return ok && holders == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Regression: Release used to hand off to the next waiter by synchronous
// recursion, nesting the stack proportionally to queue depth. A deep FIFO
// chain of grant-then-release callbacks must complete in bounded stack.
func TestResourceDeepQueueIterativeHandoff(t *testing.T) {
	const depth = 20000
	e := NewEngine()
	r := NewResource(e)
	granted := 0
	lastInOrder := true
	var stackAtLast int
	r.Acquire(func() {}) // holder; released below to start the chain
	for i := 0; i < depth; i++ {
		i := i
		r.Acquire(func() {
			if granted != i {
				lastInOrder = false
			}
			granted++
			if i == depth-1 {
				// The whole chain is synchronous; under recursive hand-off
				// the goroutine stack here would be tens of megabytes. A
				// small buffer that fits the trace proves it stayed flat.
				buf := make([]byte, 256<<10)
				stackAtLast = runtime.Stack(buf, false)
			}
			r.Release()
		})
	}
	if got := len(r.waiters) - r.head; got != depth {
		t.Fatalf("queue length = %d, want %d", got, depth)
	}
	r.Release() // triggers the full synchronous chain
	if granted != depth {
		t.Fatalf("granted %d of %d waiters", granted, depth)
	}
	if !lastInOrder {
		t.Fatal("waiters granted out of FIFO order")
	}
	if r.Busy() || len(r.waiters) != r.head {
		t.Fatalf("resource not idle after drain: busy=%v queue=%d", r.Busy(), len(r.waiters)-r.head)
	}
	if stackAtLast >= 256<<10 {
		t.Fatalf("stack trace at depth %d filled %d-byte buffer: hand-off is recursing", depth, stackAtLast)
	}
	// The resource must remain usable after a trampolined drain.
	ran := false
	r.Acquire(func() { ran = true })
	r.Release()
	if !ran {
		t.Fatal("resource unusable after deep drain")
	}
}

// Acquires issued while a hand-off loop is mid-flight must still respect
// FIFO order with respect to already-queued waiters.
func TestResourceAcquireDuringHandoffKeepsFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var order []int
	r.Acquire(func() {})
	r.Acquire(func() {
		order = append(order, 0)
		// Queue a newcomer while waiter 1 is still queued: it must run
		// after waiter 1, not jump the line through the idle window the
		// hand-off loop opens.
		r.Acquire(func() { order = append(order, 2) })
		r.Release()
	})
	r.Acquire(func() {
		order = append(order, 1)
		r.Release()
	})
	r.Release()
	r.Release() // the newcomer's hold
	want := []int{0, 1, 2}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

func TestEngineHookObservesEveryStep(t *testing.T) {
	e := NewEngine()
	var fired int
	var times []Time
	e.SetHook(func(now Time, pending int) {
		fired++
		times = append(times, now)
		if pending != e.Pending() {
			t.Fatalf("hook pending=%d, engine Pending()=%d", pending, e.Pending())
		}
	})
	e.Schedule(10, func() {})
	e.Schedule(5, func() { e.Schedule(1, func() {}) })
	e.Run()
	if fired != 3 {
		t.Fatalf("hook fired %d times, want 3", fired)
	}
	want := []Time{5, 6, 10}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("hook times = %v, want %v", times, want)
		}
	}
	e.SetHook(nil)
	e.Schedule(1, func() {})
	e.Run()
	if fired != 3 {
		t.Fatal("removed hook still fired")
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	// Events processed per second: the simulator's fundamental cost.
	eng := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(100, tick)
		}
	}
	eng.Schedule(0, tick)
	b.ResetTimer()
	eng.Run()
}
