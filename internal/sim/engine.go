// Package sim provides a deterministic discrete-event simulation engine.
//
// All hardware models in this repository (NAND dies, ONFI buses, FTL
// background work, SSD request queues) advance a shared simulated clock by
// scheduling callbacks on an Engine. Time is measured in integer nanoseconds
// and never tied to the wall clock, so every experiment is reproducible
// bit-for-bit from its seed.
//
// The scheduler is the simulator's innermost loop — every modeled latency is
// one Schedule/Step round trip — so its hot path is allocation-free in steady
// state: fired and canceled events are recycled through a per-engine freelist,
// and the priority queue is an intrusive 4-ary min-heap specialized to the
// event type (no interface boxing, no container/heap indirection). See
// DESIGN.md ("Scheduler internals") for the layout and the generation scheme
// that keeps recycled handles safe.
package sim

import "fmt"

// Time is a point on (or a span of) the simulated clock, in nanoseconds.
type Time = int64

// Convenient duration units, in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// node is the engine-owned storage for one scheduled callback. Nodes live in
// the engine's 4-ary heap while pending and on its freelist between uses;
// they are never returned to callers directly — Event handles carry a
// generation so a stale handle to a recycled node is inert.
type node struct {
	// The first seven fields fit one cache line: everything the heap's
	// sift/compare loops and the plain-Schedule fire path touch. The
	// closure-free callback form's fields (argFn/arg) follow and are only
	// read on the AtArg dispatch path.
	time  Time
	seq   uint64
	fn    func()
	index int32 // heap index; -1 when not queued
	// gen increments every time the node leaves the queue (fire or cancel),
	// invalidating all handles minted for the previous tenancy.
	gen  uint64
	eng  *Engine
	next *node // freelist link
	// argFn/arg are the closure-free callback form (AtArg): argFn is a
	// top-level function and arg a pooled descriptor, so hot paths schedule
	// continuations without materializing a fresh closure per event. Exactly
	// one of fn and argFn is set while queued. Storing a pointer-shaped arg
	// (pointer, func value) in the interface does not allocate.
	argFn func(any)
	arg   any
}

// Event is a cancelable handle to a scheduled callback, returned by
// Schedule/At. It is a small value (copy freely); the zero Event refers to
// nothing and all its methods are no-ops. Handles are generation-checked:
// once the event fires or is canceled the engine recycles its storage, and
// any retained handle becomes inert rather than aliasing the next event.
type Event struct {
	n   *node
	gen uint64
}

// live reports whether the handle still refers to a pending event.
func (ev Event) live() bool { return ev.n != nil && ev.n.gen == ev.gen }

// Pending reports whether the event is still queued (not yet fired and not
// canceled).
func (ev Event) Pending() bool { return ev.live() }

// Time returns the simulated time a pending event fires at, or 0 once the
// event has fired or been canceled.
func (ev Event) Time() Time {
	if !ev.live() {
		return 0
	}
	return ev.n.time
}

// Cancel prevents a pending event from firing. The event leaves the queue
// immediately and its callback (with whatever the closure captured) is
// released, so repeatedly superseding a far-future timer — the FTL's
// idle-patrol pattern — holds neither memory nor a Pending() count.
// Canceling an event that already fired (or was already canceled), or the
// zero Event, is a no-op.
func (ev Event) Cancel() {
	n := ev.n
	if n == nil || n.gen != ev.gen {
		return
	}
	e := n.eng
	e.remove(int(n.index))
	if n.argFn != nil {
		n.argFn = nil
		n.arg = nil
	}
	e.release(n)
}

// Hook observes every fired event: now is the clock after advancing to the
// event, pending is the number of live events still queued (the fired event
// has already left the queue). Hooks run inside Step, before the event's
// callback, so they see the engine in a consistent state; they must derive
// state only from their arguments and the simulation (never the wall clock)
// to preserve determinism.
type Hook func(now Time, pending int)

// Engine is a discrete-event scheduler. The zero value is not usable; create
// engines with NewEngine. Engine is not safe for concurrent use: the
// simulation is single-threaded by design so that event ordering — and hence
// every measured latency — is deterministic.
type Engine struct {
	now Time
	// pq is a 4-ary min-heap on (time, seq): children of slot i live at
	// 4i+1..4i+4. Every queued node is live — Cancel removes eagerly — so
	// the head is always the next event to fire.
	pq   []*node
	seq  uint64
	free *node // recycled nodes, linked through node.next
	hook Hook
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetHook installs (or, with nil, removes) the engine's step observer. One
// hook per engine: observability layers multiplex on their side. The hot
// path pays a single nil check when no hook is installed.
func (e *Engine) SetHook(h Hook) { e.hook = h }

// Pending returns the number of live events queued. Canceled events leave
// the queue at Cancel time and are never counted.
func (e *Engine) Pending() int { return len(e.pq) }

// NextEventTime returns the firing time of the earliest pending event, or
// (0, false) when the queue is empty, without disturbing the queue.
// ShardGroup keys its shard heap with it, and ssd.Device derives its
// completion floor from it.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].time, true
}

// Schedule queues fn to run delay nanoseconds from now. A negative delay is
// treated as zero. Events scheduled for the same instant fire in the order
// they were scheduled.
func (e *Engine) Schedule(delay Time, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At queues fn to run at absolute simulated time t. Scheduling in the past
// panics: it would silently reorder causality. Steady state allocates
// nothing: the event's storage comes from the engine's freelist whenever a
// prior event has fired or been canceled.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d, before now=%d", t, e.now))
	}
	e.seq++
	n := e.free
	if n != nil {
		e.free = n.next
		n.next = nil
	} else {
		n = &node{eng: e}
	}
	n.time = t
	n.seq = e.seq
	n.fn = fn
	e.push(n)
	return Event{n: n, gen: n.gen}
}

// ScheduleArg queues fn(arg) to run delay nanoseconds from now. It is the
// closure-free twin of Schedule: fn is typically a top-level function and arg
// a pooled descriptor, so steady-state request paths schedule continuations
// without allocating a closure per event. Ordering is identical to Schedule —
// both draw from the same seq counter, so interleaved Schedule/ScheduleArg
// calls fire in submission order at equal times.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) Event {
	if delay < 0 {
		delay = 0
	}
	return e.AtArg(e.now+delay, fn, arg)
}

// AtArg queues fn(arg) to run at absolute simulated time t. See ScheduleArg.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d, before now=%d", t, e.now))
	}
	e.seq++
	n := e.free
	if n != nil {
		e.free = n.next
		n.next = nil
	} else {
		n = &node{eng: e}
	}
	n.time = t
	n.seq = e.seq
	n.argFn = fn
	n.arg = arg
	e.push(n)
	return Event{n: n, gen: n.gen}
}

// release recycles a node that left the queue: the generation bump makes
// every outstanding handle inert, the callback reference is dropped so the
// closure becomes collectable, and the node joins the freelist for the next
// At. It touches only the node's first cache line: argFn/arg are cleared by
// whoever ends an arg tenancy (Step's arg path, Cancel), so plain-Schedule
// traffic — the dominant case — never reads or writes the spill fields.
func (e *Engine) release(n *node) {
	n.gen++
	n.fn = nil
	n.index = -1
	n.next = e.free
	e.free = n
}

// Step fires the next pending event and advances the clock to its time.
// It reports whether an event was fired. The fired node is recycled before
// its callback runs, so a callback that schedules new work (the dominant
// pattern: every modeled latency is a chained event) reuses the storage it
// just vacated.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	n := e.pq[0]
	e.popHead()
	e.now = n.time
	// Branch on fn first so the dominant closure path never reads the
	// second-cache-line argFn/arg fields.
	if fn := n.fn; fn != nil {
		e.release(n)
		if e.hook != nil {
			e.hook(e.now, len(e.pq))
		}
		fn()
		return true
	}
	argFn, arg := n.argFn, n.arg
	n.argFn = nil
	n.arg = nil
	e.release(n)
	if e.hook != nil {
		e.hook(e.now, len(e.pq))
	}
	argFn(arg)
	return true
}

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time <= t, then advances the clock to exactly t.
// (Every queued event is live — Cancel removes eagerly — so peeking the head
// needs no skip loop.)
func (e *Engine) RunUntil(t Time) {
	for len(e.pq) > 0 && e.pq[0].time <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunWhile fires events as long as cond() returns true and events remain.
// It returns true exactly when it stopped because the queue drained while
// cond still held — for wait loops of the form
// RunWhile(func() bool { return !done }), a true return means the awaited
// completion can no longer arrive (the simulation is stuck). It returns
// false when cond flipped, the normal completion path. A wait on one device
// request goes through ssd.Device's blocking calls, which turn a true
// return into ssd.ErrStalled.
func (e *Engine) RunWhile(cond func() bool) bool {
	for cond() {
		if !e.Step() {
			return true
		}
	}
	return false
}

// before is the heap order: (time, seq) ascending, so same-instant events
// fire in scheduling order. seq is engine-global and strictly increasing,
// so the order is total and firing order is deterministic by construction.
func before(a, b *node) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push appends n and sifts it up. 4-ary layout: parent of slot i is
// (i-1)/4. A 4-ary heap halves the tree depth of a binary heap — fewer
// compare/swap levels per operation and better cache locality on the small
// queues (tens to hundreds of events) the SSD models sustain.
func (e *Engine) push(n *node) {
	i := len(e.pq)
	e.pq = append(e.pq, n)
	for i > 0 {
		p := (i - 1) >> 2
		pn := e.pq[p]
		if !before(n, pn) {
			break
		}
		e.pq[i] = pn
		pn.index = int32(i)
		i = p
	}
	e.pq[i] = n
	n.index = int32(i)
}

// siftDown restores heap order below slot i (whose occupant may be too
// large), comparing against the least of up to four children per level.
func (e *Engine) siftDown(i int) {
	pq := e.pq
	sz := len(pq)
	n := pq[i]
	for {
		c := i<<2 + 1
		if c >= sz {
			break
		}
		m := c
		mn := pq[c]
		end := c + 4
		if end > sz {
			end = sz
		}
		for j := c + 1; j < end; j++ {
			if before(pq[j], mn) {
				m, mn = j, pq[j]
			}
		}
		if !before(mn, n) {
			break
		}
		pq[i] = mn
		mn.index = int32(i)
		i = m
	}
	pq[i] = n
	n.index = int32(i)
}

// popHead removes the minimum node (slot 0) from the heap.
func (e *Engine) popHead() {
	last := len(e.pq) - 1
	n := e.pq[last]
	e.pq[last] = nil
	e.pq = e.pq[:last]
	if last > 0 {
		e.pq[0] = n
		e.siftDown(0)
	}
}

// remove deletes the node at slot i (Cancel's path): the last node takes
// its place and sifts whichever direction restores order.
func (e *Engine) remove(i int) {
	last := len(e.pq) - 1
	n := e.pq[last]
	e.pq[last] = nil
	e.pq = e.pq[:last]
	if i == last {
		return
	}
	e.pq[i] = n
	n.index = int32(i)
	if i > 0 && before(n, e.pq[(i-1)>>2]) {
		// Sift up: move n toward the root.
		for i > 0 {
			p := (i - 1) >> 2
			pn := e.pq[p]
			if !before(n, pn) {
				break
			}
			e.pq[i] = pn
			pn.index = int32(i)
			i = p
		}
		e.pq[i] = n
		n.index = int32(i)
		return
	}
	e.siftDown(i)
}
