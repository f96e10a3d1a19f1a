package telemetry

import (
	"bufio"
	"io"

	"ssdtp/internal/sim"
)

// Recorder captures one cell's log-page stream. The device (or fleet) it is
// attached to installs a source that fills a Page from current state; Observe
// is invoked by the obs tracer's aux window at each aligned boundary. Like a
// Tracer, a Recorder belongs to one single-threaded simulation and a nil
// *Recorder no-ops everywhere, so attachment sites need no conditionals.
type Recorder struct {
	cell     string
	interval sim.Time
	source   func(*Page)
	rows     []Row
}

// NewRecorder returns an empty recorder sampling every interval of simulated
// time. A non-positive interval yields a nil (disabled) recorder.
func NewRecorder(cell string, interval sim.Time) *Recorder {
	if interval <= 0 {
		return nil
	}
	return &Recorder{cell: cell, interval: interval}
}

// Cell returns the recorder's cell label.
func (r *Recorder) Cell() string {
	if r == nil {
		return ""
	}
	return r.cell
}

// Interval returns the sampling interval (0 = disabled).
func (r *Recorder) Interval() sim.Time {
	if r == nil {
		return 0
	}
	return r.interval
}

// SetSource installs the page-filling callback (Device.FillLogPage or
// Fleet.FillLogPage).
func (r *Recorder) SetSource(fn func(*Page)) {
	if r != nil {
		r.source = fn
	}
}

// Observe captures one row at boundary time at. It reads simulation state
// only, so rows are identical across worker and shard counts.
func (r *Recorder) Observe(at sim.Time) {
	if r == nil || r.source == nil {
		return
	}
	var p Page
	r.source(&p)
	r.rows = append(r.rows, Row{Cell: r.cell, T: at, Page: p})
}

// Len returns the number of captured rows.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.rows)
}

// Rows returns the captured rows (shared slice; callers must not mutate).
func (r *Recorder) Rows() []Row {
	if r == nil {
		return nil
	}
	return r.rows
}

// WriteJSONL renders the recorder's rows, one JSON object per line, in the
// stream's fixed field order.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return writeRows(w, "", []*Recorder{r}, appendRowJSON)
}

// WriteCSV renders the recorders' rows, in argument order, as one CSV stream
// under a single header: cell, t_ns, then the page fields in JSONL order.
// Nil recorders contribute no rows.
func WriteCSV(w io.Writer, recs ...*Recorder) error {
	return writeRows(w, csvHeader, recs, appendRowCSV)
}

// writeRows writes header, then every recorder's rows rendered by enc.
func writeRows(w io.Writer, header string, recs []*Recorder, enc func([]byte, string, sim.Time, *Page) []byte) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(header); err != nil {
		return err
	}
	var line []byte
	for _, r := range recs {
		rows := r.Rows()
		for i := range rows {
			line = enc(line[:0], rows[i].Cell, rows[i].T, &rows[i].Page)
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
