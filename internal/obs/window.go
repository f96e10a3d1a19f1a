package obs

import (
	"ssdtp/internal/sim"
	"ssdtp/internal/telemetry"
)

// Sampling windows (DESIGN.md §9, §14). A tracer carries up to two windows,
// each a fixed simulated-time interval whose boundary crossings invoke a
// callback from the engine hook BindEngine installs:
//
//   - the page recorder (SamplePages), which records the bound device's or
//     fleet's transparency log page into the tracer's own telemetry
//     recorder — the Collector renders both the -timeline CSV and the
//     -telemetry JSONL from those rows;
//   - the aux window (SetWindow), a caller-supplied callback; the
//     transparency experiment rides it to read SMART at its own boundaries.
//
// Both share one anchor rule: the first observation only anchors the grid at
// the next absolute multiple of the interval (so a restored clone and a
// from-scratch build align), and each later observation fires once per
// crossed boundary, sampling *current* state at the boundary timestamp.
// Sampling reads simulation state only, so rows are identical across worker
// and shard counts. The shard pump's conservative lookahead covers both
// windows through NextTimelineBoundary.

// window is one sampling window's state. A nil fire leaves it inert: it
// neither anchors nor counts as a boundary for the lookahead.
type window struct {
	interval sim.Time
	fire     func(at sim.Time)
	nextAt   sim.Time
	inited   bool
}

// observe advances the window to now, firing once per crossed boundary.
func (w *window) observe(now sim.Time) {
	if w.fire == nil {
		return
	}
	if !w.inited {
		w.inited = true
		w.nextAt = (now/w.interval + 1) * w.interval
		return
	}
	for now >= w.nextAt {
		w.fire(w.nextAt)
		w.nextAt += w.interval
	}
}

// next returns the window's next boundary: ok=false when it is absent or
// inert, (0, true) before its grid is anchored.
func (w *window) next() (sim.Time, bool) {
	if w == nil || w.fire == nil {
		return 0, false
	}
	if !w.inited {
		return 0, true
	}
	return w.nextAt, true
}

// SetWindow installs the aux sampling window: fire runs at every crossed
// boundary of the given interval, receiving the boundary timestamp. The
// callback runs inside the engine hook and must only read simulation state.
// interval <= 0 or a nil fire clears the window.
func (t *Tracer) SetWindow(interval sim.Time, fire func(at sim.Time)) {
	if t == nil {
		return
	}
	if interval <= 0 || fire == nil {
		t.win = nil
		return
	}
	t.win = &window{interval: interval, fire: fire}
}

// SamplePages enables the tracer's page recorder, sampling the log page
// every interval of simulated time. Must be set before the device or fleet
// binds its page source; interval <= 0 leaves sampling off. The Collector
// sets it on each cell it creates.
func (t *Tracer) SamplePages(interval sim.Time) {
	if t == nil || interval <= 0 {
		return
	}
	t.page = &window{interval: interval}
	t.pages = telemetry.NewRecorder(t.label)
}

// SetPageSource binds the log-page source the page recorder samples; devices
// and fleets bind their FillLogPage at construction. No-op unless page
// sampling is enabled.
func (t *Tracer) SetPageSource(fn func(*telemetry.Page)) {
	if t == nil || t.page == nil {
		return
	}
	t.pages.SetSource(fn)
	t.page.fire = t.pages.Observe
}

// NextTimelineBoundary returns the simulated time of the next sampling
// boundary — the minimum over the page recorder and the aux window — or
// ok=false when neither is active (none configured, no source bound, or
// sampling suspended). The parallel fleet engine caps its lookahead here: a
// boundary samples *current* device state at the first event at or past it,
// so no event beyond the boundary may fire before the row is captured.
// Before the first observation anchors a window's grid, that window
// conservatively reports time 0 with ok=true — callers treat (0, true) as
// "no lookahead until anchored".
func (t *Tracer) NextTimelineBoundary() (sim.Time, bool) {
	if t == nil || t.suspended {
		return 0, false
	}
	var at sim.Time
	ok := false
	for _, w := range [...]*window{t.page, t.win} {
		if b, wok := w.next(); wok && (!ok || b < at) {
			at, ok = b, true
		}
	}
	return at, ok
}
