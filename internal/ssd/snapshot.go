package ssd

import (
	"fmt"

	"ssdtp/internal/cow"
	"ssdtp/internal/ftl"
	"ssdtp/internal/nand"
	"ssdtp/internal/onfi"
	"ssdtp/internal/sim"
)

// Device snapshot/clone (DESIGN.md §8). A snapshot deep-copies every layer
// of a drained device — FTL tables and in-flight background ops, per-channel
// bus accounting, every chip's program cursors, wear, disturb counters and
// payloads, host byte totals — so that an expensive preconditioning run can
// be performed once and stamped onto fresh devices. A restored clone is
// observationally identical to the source at capture time: same tables, same
// S.M.A.R.T. counters, same trailing-GC events at the same simulated
// instants (prefill states are deliberately NOT quiescent — flush does not
// wait out background collection).

// DeviceState is an opaque deep copy of a device at a drained instant.
type DeviceState struct {
	name  string
	now   sim.Time
	fl    *ftl.State
	buses []*onfi.BusState
	chips [][]*nand.ChipState

	content          *cow.Image[byte] // nil unless StoreContent
	hostBytesWritten int64
	hostBytesRead    int64
}

// Snapshot captures the device. The device must be drained: no host requests
// or flushes outstanding, write cache clean (issue FlushAsync and run the
// engine first). Background collection may still be in flight — that is the
// normal post-flush state — and is captured exactly. Panics if the device is
// not in a capturable state; with reliability modeling, note that the clone
// replays retention from the same birth timestamps only if the restoring
// engine is rebased to the capture time (Restore does this).
func (d *Device) Snapshot() *DeviceState {
	if d.inflightFlushes != 0 {
		panic("ssd: Snapshot with flushes outstanding")
	}
	st := &DeviceState{
		name:             d.cfg.Name,
		now:              d.eng.Now(),
		fl:               d.fl.Snapshot(),
		hostBytesWritten: d.hostBytesWritten,
		hostBytesRead:    d.hostBytesRead,
	}
	if got, want := d.eng.Pending(), st.fl.PendingEvents(); got != want {
		panic(fmt.Sprintf("ssd: Snapshot with %d pending engine events, snapshot accounts for %d", got, want))
	}
	st.buses = make([]*onfi.BusState, len(d.array.buses))
	st.chips = make([][]*nand.ChipState, len(d.array.chips))
	for ch, b := range d.array.buses {
		st.buses[ch] = b.Snapshot()
		st.chips[ch] = make([]*nand.ChipState, len(d.array.chips[ch]))
		for w, c := range d.array.chips[ch] {
			st.chips[ch][w] = c.Snapshot()
		}
	}
	if d.content != nil {
		img := d.content.Snapshot()
		st.content = &img
	}
	return st
}

// Restore stamps a snapshot onto a freshly constructed device (same Config,
// fresh engine with nothing scheduled). The engine is rebased to the capture
// time, every layer's state is overwritten bottom-up (chips, buses, FTL),
// and in-flight background ops are rescheduled at their captured times and
// engine order. The snapshot remains valid for further restores.
func (d *Device) Restore(st *DeviceState) {
	if d.cfg.Name != st.name {
		panic(fmt.Sprintf("ssd: Restore of a %q snapshot onto a %q device", st.name, d.cfg.Name))
	}
	if len(st.buses) != len(d.array.buses) {
		panic("ssd: Restore channel-count mismatch")
	}
	if (st.content != nil) != (d.content != nil) {
		panic("ssd: Restore StoreContent mismatch")
	}
	d.eng.Rebase(st.now)
	for ch, b := range d.array.buses {
		for w, c := range d.array.chips[ch] {
			c.Restore(st.chips[ch][w])
		}
		b.Restore(st.buses[ch])
	}
	d.fl.Restore(st.fl)
	d.hostBytesWritten = st.hostBytesWritten
	d.hostBytesRead = st.hostBytesRead
	if st.content != nil {
		d.content.Restore(*st.content)
	}
}
