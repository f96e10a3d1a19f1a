package ssd

import (
	"errors"
	"fmt"
)

// ErrStalled reports that the simulation's event queue drained before an
// outstanding synchronous request completed — the completion callback can
// no longer fire, so the device lost the request. It indicates a model
// bug, never a legitimate device state.
var ErrStalled = errors.New("ssd: event queue drained before request completed")

// ErrFlushBacklog reports that FlushAsync refused a FLUSH because the device
// already has maxOutstandingFlushes flush commands in flight. The rejected
// command's callback will never fire; callers must treat it like any other
// submission error.
var ErrFlushBacklog = errors.New("ssd: too many outstanding flush commands")

// blocker is the completion state of the device's blocking calls: one flag
// and the two prebuilt funcs every call hands to the engine, so a
// steady-state blocking call allocates nothing. The device builds it on its
// first blocking call; a drive that only ever submits asynchronously (a
// fleet clone) never does.
type blocker struct {
	busy    bool        // a blocking call is waiting on the engine
	done    bool        // the awaited request completed
	finish  func()      // sets done; the request's completion callback
	pending func() bool // reports !done; the engine's run condition
}

// block arms the device's blocker for one blocking call and returns the
// completion callback to submit with. A blocking call made while another is
// waiting (from an event the outer call's engine run fired) would share the
// flag, so it panics.
func (d *Device) block() func() {
	b := d.blk
	if b == nil {
		b = &blocker{}
		b.finish = func() { b.done = true }
		b.pending = func() bool { return !b.done }
		d.blk = b
	}
	if b.busy {
		panic(fmt.Sprintf("ssd %s: blocking call while another is in progress", d.cfg.Name))
	}
	b.busy, b.done = true, false
	return b.finish
}

// await runs the engine until the armed request completes. A submission
// error comes back as it is, without running the engine; a queue that
// drains first yields ErrStalled, wrapped with the device and op.
func (d *Device) await(op string, err error) error {
	if err == nil && d.eng.RunWhile(d.blk.pending) {
		err = fmt.Errorf("ssd %s %s: %w", d.cfg.Name, op, ErrStalled)
	}
	d.blk.busy = false
	return err
}

// Write submits WriteAsync(off, data, n) and runs the engine until it
// completes.
func (d *Device) Write(off int64, data []byte, n int64) error {
	return d.await("write", d.WriteAsync(off, data, n, d.block()))
}

// Read submits ReadAsync(off, buf, n) and runs the engine until it
// completes.
func (d *Device) Read(off int64, buf []byte, n int64) error {
	return d.await("read", d.ReadAsync(off, buf, n, d.block()))
}

// Trim submits TrimAsync(off, n) and runs the engine until it completes.
func (d *Device) Trim(off, n int64) error {
	return d.await("trim", d.TrimAsync(off, n, d.block()))
}

// Flush submits FlushAsync and runs the engine until the flush completes.
func (d *Device) Flush() error {
	return d.await("flush", d.FlushAsync(d.block()))
}
