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
// counts.

// window is one sampling window's state. A nil fire leaves it inert: it does
// not anchor.
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
