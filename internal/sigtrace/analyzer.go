// Package sigtrace is the simulated logic analyzer of §3.1: it attaches
// probes to ONFI channel buses, captures the electrical activity a probe on
// the package pinout would see, renders signal diagrams (the paper's
// Figure 5), and decodes captured traces back into flash operations.
//
// The decode path deliberately consumes only what hardware probes expose —
// command/address/data cycles and the R/B# line — never firmware intent.
// That is the paper's methodological point: standardized chip interfaces
// (ONFI) make the firmware's behaviour observable from outside.
package sigtrace

import (
	"ssdtp/internal/onfi"
	"ssdtp/internal/sim"
)

// Analyzer captures bus events from one channel while armed.
type Analyzer struct {
	events    []onfi.BusEvent
	armed     bool
	limit     int // bufferDepth; tests lower it
	truncated bool
	detach    func()

	// resolution is the sample window width; edges arriving within the
	// same window as the previous captured edge *on the same signal group*
	// are lost (simultaneous transitions on different pins land in one
	// sample and survive). Zero means ideal (the $20k analyzer of §3.1).
	resolution sim.Time
	lastEdge   [3]sim.Time // last captured window per signal group; -1 = none
	// Aliased counts edges lost to insufficient sampling rate.
	aliased int64
}

// signalGroup maps an event to the physical lines whose edges carry it:
// WE#-latched traffic (commands, addresses, data in), RE#-latched traffic
// (data out), and the R/B# line.
func signalGroup(k onfi.EventKind) int {
	switch k {
	case onfi.EventDataOut:
		return 1
	case onfi.EventBusy, onfi.EventReady:
		return 2
	default:
		return 0
	}
}

// bufferDepth bounds the events an analyzer stores, modeling its capture
// buffer; events past it are dropped and the capture marked truncated.
const bufferDepth = 1 << 20

// Attach solders probes onto bus with an ideal (infinitely fast) analyzer.
// The analyzer starts disarmed; call Arm to begin capturing.
func Attach(bus *onfi.Bus) *Analyzer {
	return AttachRate(bus, 0)
}

// AttachRate attaches an analyzer with a finite sampling rate: resolution
// is the minimum interval between distinguishable edges (the inverse of the
// sample rate). The paper's §3.1 warns that "the probing hardware must be
// able to handle high-rate tracing"; this models what a cheaper instrument
// loses — closely spaced command/address cycles alias into nothing while
// long data bursts and busy intervals survive.
func AttachRate(bus *onfi.Bus, resolution sim.Time) *Analyzer {
	a := &Analyzer{limit: bufferDepth, resolution: resolution, lastEdge: [3]sim.Time{-1, -1, -1}}
	a.detach = bus.Observe(onfi.ObserverFunc(a.onEvent))
	return a
}

// Aliased returns the count of edges lost to the sampling-rate limit.
func (a *Analyzer) Aliased() int64 { return a.aliased }

func (a *Analyzer) onEvent(ev onfi.BusEvent) {
	if !a.armed {
		return
	}
	if a.resolution > 0 {
		// An edge falling into the same sample window as the previously
		// captured edge on the same lines is indistinguishable from it.
		g := signalGroup(ev.Kind)
		window := ev.Time / a.resolution
		if a.lastEdge[g] >= 0 && window == a.lastEdge[g] {
			a.aliased++
			return
		}
		a.lastEdge[g] = window
	}
	if len(a.events) >= a.limit {
		a.truncated = true
		return
	}
	a.events = append(a.events, ev)
}

// Arm begins capturing.
func (a *Analyzer) Arm() { a.armed = true }

// Stop ends capturing.
func (a *Analyzer) Stop() { a.armed = false }

// Events returns the captured events in time order.
func (a *Analyzer) Events() []onfi.BusEvent { return a.events }

// Clear discards the capture buffer.
func (a *Analyzer) Clear() {
	a.events = nil
	a.truncated = false
}

// Detach removes the probes from the bus.
func (a *Analyzer) Detach() {
	if a.detach != nil {
		a.detach()
		a.detach = nil
	}
}

// Burst is a group of events separated from neighbors by an idle gap.
type Burst struct {
	Start, End sim.Time
	Events     []onfi.BusEvent
}

// Duration returns the burst's time span.
func (b Burst) Duration() sim.Time { return b.End - b.Start }

// Bursts groups events whose inter-event gap is below gap. This is the
// first-stage structure a human sees on the analyzer screen: flat line,
// short command/address activity, long data transfer (Figure 5).
func Bursts(events []onfi.BusEvent, gap sim.Time) []Burst {
	var out []Burst
	for _, ev := range events {
		end := ev.Time + ev.Dur
		if n := len(out); n > 0 && ev.Time-out[n-1].End <= gap {
			b := &out[n-1]
			b.Events = append(b.Events, ev)
			if end > b.End {
				b.End = end
			}
			continue
		}
		out = append(out, Burst{Start: ev.Time, End: end, Events: []onfi.BusEvent{ev}})
	}
	return out
}
