package telemetry

import (
	"fmt"
	"strings"
)

// Host-side forecasting from the disclosed log page (DESIGN.md §14). The
// transparency experiment asks: given only what the device discloses at a
// window boundary, can the host predict whether the *next* window hides a
// GC-driven tail cliff? PredictCliff is deliberately a small hand-written
// rule, not a fitted model — the point is that the disclosed fields make the
// prediction trivial, where the SMART-only baseline (cumulative counters,
// trailing by a window) cannot even see the onset.

// victimValidThresholdPPM is the in-flight victim valid fraction above which
// collection implies meaningful relocation traffic (20% of the block).
const victimValidThresholdPPM = 200_000

// PredictCliff is the transparency forecaster: true when the log page at a
// boundary says the next window is at risk of a GC stall cliff. prev is the
// previous boundary's page (nil at the first boundary). The rule, in the
// paper's terms: host work is queued at this instant (QueueDepth — parked
// page-ops or admission stalls), and collection is moving real data — either
// an in-flight victim still holds a meaningful valid fraction, or GC
// programmed pages during the window that just closed. Saturating gauges
// (free-block slack, dirty fraction) are deliberately not triggers: at
// steady-state fill they are always red and carry no per-window information.
func PredictCliff(cur, prev *Page) bool {
	if cur.QueueDepth == 0 {
		return false
	}
	if prev != nil && cur.GCPagesProgrammed > prev.GCPagesProgrammed {
		return true
	}
	return cur.GCVictimValidPPM >= victimValidThresholdPPM
}

// Score accumulates binary-forecast outcomes against ground truth.
type Score struct {
	TP, FP, FN, TN int64
}

// Add records one (predicted, actual) outcome.
func (s *Score) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		s.TP++
	case predicted && !actual:
		s.FP++
	case !predicted && actual:
		s.FN++
	default:
		s.TN++
	}
}

// Precision returns TP/(TP+FP), or 0 with no positive predictions.
func (s Score) Precision() float64 {
	if s.TP+s.FP == 0 {
		return 0
	}
	return float64(s.TP) / float64(s.TP+s.FP)
}

// Recall returns TP/(TP+FN), or 0 with no actual positives.
func (s Score) Recall() float64 {
	if s.TP+s.FN == 0 {
		return 0
	}
	return float64(s.TP) / float64(s.TP+s.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (s Score) F1() float64 {
	p, r := s.Precision(), s.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the score compactly for experiment tables.
func (s Score) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P=%.2f R=%.2f F1=%.2f", s.Precision(), s.Recall(), s.F1())
	return b.String()
}
