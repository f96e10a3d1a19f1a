package sigtrace

import (
	"fmt"
	"strings"

	"ssdtp/internal/onfi"
	"ssdtp/internal/sim"
)

// MinWaveformWidth is the narrowest diagram RenderWaveform draws; a smaller
// width is raised to it.
const MinWaveformWidth = 16

// RenderWaveform draws an ASCII signal diagram of the captured events in
// [from, to) across width columns — the repository's Figure 5. Rows are the
// probe-visible ONFI pins: CLE and ALE (latch enables), WE# and RE# (write/
// read strobes, shown as activity pulses), DQ[7:0] (bus contents), and R/B#
// (die busy). Idle-high lines render as '-', idle-low as '_'.
func RenderWaveform(events []onfi.BusEvent, from, to sim.Time, width int) string {
	if width < MinWaveformWidth {
		width = MinWaveformWidth
	}
	if to <= from {
		return "(empty window)\n"
	}
	span := to - from
	bucket := func(t sim.Time) int {
		c := int((t - from) * sim.Time(width) / span)
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	const (
		rowCLE = iota
		rowALE
		rowWE
		rowRE
		rowDQ
		rowRB
		numRows
	)
	rows := make([][]byte, numRows)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	fill := func(row int, b byte) {
		for i := range rows[row] {
			rows[row][i] = b
		}
	}
	fill(rowCLE, '_')
	fill(rowALE, '_')
	fill(rowWE, '-') // active low, idle high
	fill(rowRE, '-')
	fill(rowDQ, '.')
	fill(rowRB, '-') // ready high

	mark := func(row int, c int, b byte) { rows[row][c] = b }
	markRange := func(row int, t0, t1 sim.Time, b byte) {
		c0, c1 := bucket(t0), bucket(t1)
		for c := c0; c <= c1; c++ {
			rows[row][c] = b
		}
	}

	busySince := sim.Time(-1)
	for _, ev := range events {
		if ev.Time+ev.Dur < from || ev.Time >= to {
			if ev.Kind == onfi.EventBusy {
				busySince = ev.Time
			}
			if ev.Kind == onfi.EventReady {
				if busySince >= 0 && busySince < to && ev.Time >= from {
					markRange(rowRB, maxTime(busySince, from), minTime(ev.Time, to-1), '_')
				}
				busySince = -1
			}
			continue
		}
		c := bucket(ev.Time)
		switch ev.Kind {
		case onfi.EventCmd:
			mark(rowCLE, c, '#')
			mark(rowWE, c, 'v')
			mark(rowDQ, c, 'C')
		case onfi.EventAddr:
			mark(rowALE, c, '#')
			mark(rowWE, c, 'v')
			mark(rowDQ, c, 'A')
		case onfi.EventDataIn:
			markRange(rowWE, ev.Time, ev.Time+ev.Dur, 'v')
			markRange(rowDQ, ev.Time, ev.Time+ev.Dur, '=')
		case onfi.EventDataOut:
			markRange(rowRE, ev.Time, ev.Time+ev.Dur, 'v')
			markRange(rowDQ, ev.Time, ev.Time+ev.Dur, '=')
		case onfi.EventBusy:
			busySince = ev.Time
		case onfi.EventReady:
			start := busySince
			if start < 0 {
				start = ev.Time
			}
			markRange(rowRB, maxTime(start, from), ev.Time, '_')
			busySince = -1
		}
	}
	if busySince >= 0 {
		markRange(rowRB, maxTime(busySince, from), to-1, '_')
	}

	labels := []string{"CLE ", "ALE ", "WE# ", "RE# ", "DQ  ", "R/B#"}
	var b strings.Builder
	fmt.Fprintf(&b, "t = %s .. %s  (%s span, %d columns)\n",
		fmtTime(from), fmtTime(to), fmtTime(span), width)
	for i, r := range rows {
		fmt.Fprintf(&b, "%s |%s|\n", labels[i], string(r))
	}
	return b.String()
}

func fmtTime(t sim.Time) string {
	switch {
	case t >= sim.Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(sim.Millisecond))
	case t >= sim.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(t)/float64(sim.Microsecond))
	default:
		return fmt.Sprintf("%dns", t)
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}
