package sim

import "fmt"

// This file holds the minimal engine surface the snapshot/restore subsystem
// needs (see DESIGN.md §8): rebasing a fresh engine's clock onto a captured
// simulated time, reading an event's scheduling sequence so restore can
// replay same-instant ordering, and reconstructing a Resource's utilization
// accounting.

// Rebase advances the clock of an empty engine to t without firing anything.
// Restore uses it to move a freshly built device's engine to the snapshot's
// capture time before rescheduling the captured in-flight events. The event
// sequence counter is intentionally NOT restored: only the relative order of
// rescheduled events matters, and restore schedules them in recorded order.
// Panics if events are pending (they would be stranded in the past relative
// to their intent) or if t would move the clock backward.
func (e *Engine) Rebase(t Time) {
	if len(e.pq) != 0 {
		panic("sim: Rebase with pending events")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: Rebase to %d, before now=%d", t, e.now))
	}
	e.now = t
}

// Seq returns the engine-global scheduling sequence of a pending event, or 0
// once the event has fired or been canceled. Sequences are strictly
// increasing across At calls, so sorting captured events by Seq reproduces
// their same-instant firing order.
func (ev Event) Seq() uint64 {
	if !ev.live() {
		return 0
	}
	return ev.n.seq
}

// RestoreUsage overwrites the resource's utilization accounting with captured
// values: whether it is held, since when, the cumulative held time before
// that, and the cumulative wait accounting. It is a restore-time primitive
// only — the resource must have no holder and no waiters, i.e. be freshly
// constructed. The caller re-acquires on behalf of the restored holders
// afterward (via AcquireSinceArg, so the waits they complete after restore are
// charged from their original enqueue times), which overwrites BusySince with
// the (identical) grant time; RestoreUsage(busy=true, ...) exists for
// completeness when a holder is reinstated out-of-band.
func (r *Resource) RestoreUsage(busy bool, since, total, waitTotal Time, waits int64) {
	if r.busy || len(r.waiters) != 0 {
		panic("sim: RestoreUsage on a resource in use")
	}
	r.busy = busy
	r.BusySince = since
	r.busyTotal = total
	r.waitTotal = waitTotal
	r.waits = waits
}
