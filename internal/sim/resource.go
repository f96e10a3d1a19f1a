package sim

// Resource models a unit-capacity resource (a bus, a die) with FIFO
// admission. Users Acquire it with a callback that runs once the resource is
// free; the callback must eventually arrange for Release to be called (often
// after a Schedule'd delay).
type Resource struct {
	eng  *Engine
	busy bool
	// waiters[head:] are the queued callbacks in FIFO order. The head index
	// avoids the O(n) shift per grant that a slice-pop would cost on deep
	// queues; the array compacts whenever it fully drains.
	waiters []waiter
	head    int
	// granting marks an active hand-off loop in Release, so a Release from
	// inside a granted callback unwinds instead of recursing.
	granting bool
	// BusySince records when the current holder acquired the resource,
	// for utilization accounting.
	BusySince Time
	busyTotal Time
	// Wait accounting: cumulative queued time, charged at grant for every
	// acquisition that could not be granted immediately.
	waitTotal Time
	waits     int64
}

// waiter is one queued acquisition: the grant callback plus the time it
// joined the queue, so the grant can charge the wait to contention accounting.
// Exactly one of fn and argFn is set (see AcquireArg).
type waiter struct {
	fn    func()
	argFn func(any)
	arg   any
	since Time
}

// NewResource returns an idle resource bound to eng.
func NewResource(eng *Engine) *Resource {
	return &Resource{eng: eng}
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// BusyTime returns the cumulative simulated time the resource has been held.
func (r *Resource) BusyTime() Time { return r.busyTotal }

// WaitTime returns the cumulative simulated time acquisitions spent queued
// behind other holders before being granted. Immediate grants contribute
// nothing; time spent by waiters still queued is not yet counted.
func (r *Resource) WaitTime() Time { return r.waitTotal }

// Waits returns the number of acquisitions that had to queue (the divisor
// for an average wait; immediate grants are not counted).
func (r *Resource) Waits() int64 { return r.waits }

// Acquire runs fn as soon as the resource is free (immediately if idle).
// fn runs synchronously when the resource is granted; do not block in it.
func (r *Resource) Acquire(fn func()) {
	// Grant immediately only when nothing is queued ahead; an idle resource
	// with waiters exists transiently inside Release's hand-off loop, and
	// jumping the queue there would break FIFO order.
	if !r.busy && r.head == len(r.waiters) {
		r.busy = true
		r.BusySince = r.eng.Now()
		fn()
		return
	}
	r.waiters = append(r.waiters, waiter{fn: fn, since: r.eng.Now()})
}

// AcquireArg is the closure-free twin of Acquire (see Engine.ScheduleArg):
// fn(arg) runs as soon as the resource is free, with fn typically a top-level
// function and arg a pooled operation descriptor. Grant order interleaves
// FIFO with Acquire callers.
func (r *Resource) AcquireArg(fn func(any), arg any) {
	r.AcquireSinceArg(r.eng.Now(), fn, arg)
}

// AcquireSinceArg is AcquireArg with an explicit queue-entry time for wait
// accounting. Restore paths use it to reinstate waiters captured in a
// snapshot with their original enqueue time, so WaitTime matches a
// from-scratch run; everything else should use AcquireArg. If the grant is
// immediate, since is irrelevant (no wait is charged).
func (r *Resource) AcquireSinceArg(since Time, fn func(any), arg any) {
	if !r.busy && r.head == len(r.waiters) {
		r.busy = true
		r.BusySince = r.eng.Now()
		fn(arg)
		return
	}
	r.waiters = append(r.waiters, waiter{argFn: fn, arg: arg, since: since})
}

// Release frees the resource and grants it to the next waiter, if any.
// Panics if the resource is not held: that is always a model bug.
//
// Hand-off is iterative: a chain of grant-then-release callbacks (common
// when many zero-duration holds queue up) consumes constant stack depth, not
// depth proportional to the queue.
func (r *Resource) Release() {
	if !r.busy {
		panic("sim: Release of idle resource")
	}
	r.busyTotal += r.eng.Now() - r.BusySince
	r.busy = false
	if r.granting {
		// A hand-off loop is already on the stack below us; let it grant
		// the next waiter after this callback unwinds.
		return
	}
	r.granting = true
	for !r.busy && r.head < len(r.waiters) {
		next := r.waiters[r.head]
		r.waiters[r.head] = waiter{}
		r.head++
		if r.head == len(r.waiters) {
			r.waiters = r.waiters[:0]
			r.head = 0
		}
		r.busy = true
		r.BusySince = r.eng.Now()
		r.waitTotal += r.eng.Now() - next.since
		r.waits++
		if next.argFn != nil {
			next.argFn(next.arg)
		} else {
			next.fn()
		}
	}
	r.granting = false
}
