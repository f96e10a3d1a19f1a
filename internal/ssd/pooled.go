package ssd

import (
	"ssdtp/internal/obs"
)

// Pooled host-request descriptors (DESIGN.md §13). Every async entry point
// used to build two closures per request — the trace-completion wrapper and
// the host-overhead dispatch thunk. An ioReq replaces all of them: one freelist-recycled struct carries
// the request through dispatch and completion, the dispatch thunk is a
// static function handed to sim.Engine.ScheduleArg, and the completion is a
// single closure built once per descriptor at pool growth. At steady state
// the submission path allocates nothing.

// ioKind selects the FTL entry point an ioReq dispatches to.
type ioKind int8

const (
	ioWrite ioKind = iota
	ioRead
	ioTrim
	ioFlush
)

// ioReq is one in-flight host request. Ownership: the device owns the
// descriptor from newIoReq until fire recycles it; fire copies what it still
// needs to locals and releases the descriptor *before* invoking the caller's
// done, so a completion that immediately submits new I/O reuses it.
type ioReq struct {
	d     *Device
	op    ioKind
	lsn   int64
	count int
	sp    obs.Span     // zero when tracing is off (End is then a no-op)
	attr  *obs.ReqAttr // nil when tracing is off (methods are nil-safe)
	done  func()
	fire  func() // prebuilt completion, handed to the FTL
	next  *ioReq // freelist link
}

// newIoReq returns a recycled (or fresh) descriptor. The completion closure
// is built only on pool growth; it reads its context from the descriptor's
// fields, so recycled descriptors reuse it as-is.
func (d *Device) newIoReq(op ioKind, lsn int64, count int, done func()) *ioReq {
	r := d.reqFree
	if r == nil {
		r = &ioReq{d: d}
		r.fire = func() {
			d := r.d
			if r.op == ioFlush {
				d.inflightFlushes--
			}
			attr, sp, done := r.attr, r.sp, r.done
			d.releaseIoReq(r)
			attr.End()
			sp.End()
			if done != nil {
				done()
			}
		}
	} else {
		d.reqFree = r.next
		r.next = nil
	}
	r.op = op
	r.lsn = lsn
	r.count = count
	r.done = done
	return r
}

// releaseIoReq recycles a descriptor, dropping references (attr, done) so
// the freelist never pins request-lifetime objects.
func (d *Device) releaseIoReq(r *ioReq) {
	r.sp = obs.Span{}
	r.attr = nil
	r.done = nil
	r.next = d.reqFree
	d.reqFree = r
}

// submitIO finishes submission of a validated request: trace/attribution
// begin (adopting the host interface's hand-off record when one is parked)
// and the host-overhead dispatch delay.
func (d *Device) submitIO(op ioKind, name string, off, length, lsn int64, count int, done func()) {
	r := d.newIoReq(op, lsn, count, done)
	if d.tr.Enabled() {
		attr := d.prof.TakeHandoff()
		if attr == nil {
			attr = d.prof.BeginReq(obs.PhaseDispatch)
		} else {
			attr.Mark(obs.PhaseDispatch)
		}
		r.attr = attr
		r.sp = d.tr.Begin(name, obs.Int("off", off), obs.Int("len", length))
	}
	d.eng.ScheduleArg(d.cfg.HostOverhead, ioReqDispatch, r)
}

// ioReqDispatch runs on the engine after the host-overhead delay and routes
// the request into the FTL. Static — ScheduleArg carries the descriptor.
func ioReqDispatch(arg any) {
	r := arg.(*ioReq)
	d := r.d
	r.sp.Event("ftl.dispatch")
	switch r.op {
	case ioWrite:
		d.prof.SetCur(r.attr)
		err := d.fl.Write(r.lsn, r.count, r.fire)
		d.prof.SetCur(nil)
		if err != nil {
			panic(err) // range was validated at submission; this is a model bug
		}
	case ioRead:
		d.prof.SetCur(r.attr)
		err := d.fl.Read(r.lsn, r.count, r.fire)
		d.prof.SetCur(nil)
		if err != nil {
			panic(err)
		}
	case ioTrim:
		if err := d.fl.Trim(r.lsn, r.count); err != nil {
			panic(err)
		}
		r.fire()
	case ioFlush:
		r.attr.Mark(obs.PhaseCacheStall) // a flush *is* cache-drain stall time
		d.fl.Flush(r.fire)
	}
}
