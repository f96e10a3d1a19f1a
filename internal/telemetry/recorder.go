package telemetry

import (
	"bufio"
	"io"

	"ssdtp/internal/sim"
)

// Recorder captures one cell's log-page stream. The device (or fleet) it
// samples installs a source that fills a Page from current state; Observe is
// invoked by a sampling window (the obs tracer's page recorder, or the
// transparency experiment's own) at each aligned boundary. Like a Tracer, a
// Recorder belongs to one single-threaded simulation and a nil *Recorder
// no-ops everywhere, so attachment sites need no conditionals.
type Recorder struct {
	cell   string
	source func(*Page)
	rows   []Row
}

// NewRecorder returns an empty recorder whose rows carry the cell label.
func NewRecorder(cell string) *Recorder { return &Recorder{cell: cell} }

// SetSource installs the page-filling callback (Device.FillLogPage or
// Fleet.FillLogPage).
func (r *Recorder) SetSource(fn func(*Page)) {
	if r != nil {
		r.source = fn
	}
}

// Observe captures one row at boundary time at. It reads simulation state
// only, so rows are identical across worker counts.
func (r *Recorder) Observe(at sim.Time) {
	if r == nil || r.source == nil {
		return
	}
	var p Page
	r.source(&p)
	r.rows = append(r.rows, Row{Cell: r.cell, T: at, Page: p})
}

// Rows returns the captured rows (shared slice; callers must not mutate).
func (r *Recorder) Rows() []Row {
	if r == nil {
		return nil
	}
	return r.rows
}

// WriteJSONL renders the recorders' rows whose timestamps are multiples of
// every, one JSON object per line in the stream's fixed field order,
// recorders in argument order. Nil recorders, and every <= 0, contribute no
// rows.
func WriteJSONL(w io.Writer, every sim.Time, recs ...*Recorder) error {
	return writeRows(w, "", every, recs, appendRowJSON)
}

// WriteCSV renders the recorders' rows whose timestamps are multiples of
// every as one CSV stream under a single header: cell, t_ns, then the page
// fields in JSONL order.
func WriteCSV(w io.Writer, every sim.Time, recs ...*Recorder) error {
	return writeRows(w, csvHeader, every, recs, appendRowCSV)
}

// writeRows writes header, then every recorder's rows on the every grid
// rendered by enc; a non-positive every (an export that is off) writes no
// rows.
func writeRows(w io.Writer, header string, every sim.Time, recs []*Recorder, enc func([]byte, string, sim.Time, *Page) []byte) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(header); err != nil {
		return err
	}
	if every <= 0 {
		recs = nil
	}
	var line []byte
	for _, r := range recs {
		rows := r.Rows()
		for i := range rows {
			if rows[i].T%every != 0 {
				continue
			}
			line = enc(line[:0], rows[i].Cell, rows[i].T, &rows[i].Page)
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
