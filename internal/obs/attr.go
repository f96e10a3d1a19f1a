package obs

import (
	"ssdtp/internal/sim"

	"ssdtp/internal/stats"
)

// Latency attribution (DESIGN.md §9). Every host request's end-to-end latency
// is decomposed into named phases by charging each simulated instant of the
// request's lifetime to exactly one phase: a ReqAttr carries the time of its
// last phase transition, and each Mark charges the interval since then to the
// outgoing phase. Phase sums therefore equal end-to-end latency exactly, by
// construction — there is no sampling and no residual bucket.
//
// The profiler shares the tracer's enable/suspend state: attribution is on
// whenever tracing is (prefill traffic under a suspended tracer is not
// attributed), and the nil-tracer fast path stays zero-alloc because every
// entry point is nil-safe and allocation-free when disabled.

// Phase names one latency-attribution bucket. The taxonomy follows the
// request's path through the stack; see DESIGN.md §9 for the physical meaning
// of each bucket and how GC interference is charged.
type Phase int

const (
	// PhaseHostQueue is time queued in the host interface before the device
	// sees the command (submission-queue arbitration, QD backpressure).
	PhaseHostQueue Phase = iota
	// PhaseDispatch is firmware command handling: host-overhead decode plus
	// FTL lookup work before the request reaches cache or flash.
	PhaseDispatch
	// PhaseCacheHit is the DRAM path: write-cache admission at cache latency,
	// cache read hits, and unmapped/zero-fill reads.
	PhaseCacheHit
	// PhaseCacheStall is write-cache admission backpressure while no garbage
	// collection runs: the flush pipeline is saturated by foreground traffic
	// alone.
	PhaseCacheStall
	// PhaseChanWait is channel/die contention behind other foreground work:
	// time queued for a die or for the channel wires.
	PhaseChanWait
	// PhaseNAND is the flash array itself: command/address/data cycles on the
	// wires plus tR/tPROG/tBERS array time for the request's own operations.
	PhaseNAND
	// PhaseGCStall is background interference: cache-admission stalls while a
	// victim block is being collected, die waits behind suspendable background
	// programs/erases, and read-suspend overhead.
	PhaseGCStall

	// NumPhases is the bucket count; phases index arrays of this size.
	NumPhases int = iota
)

// phaseNames are the export names, in Phase order.
var phaseNames = [NumPhases]string{
	"host_queue", "dispatch", "cache_hit", "cache_stall", "chan_wait", "nand", "gc_stall",
}

// String returns the export name of the phase.
func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// AttrRow is one completed request's exact decomposition: Total is the
// end-to-end latency and equals the sum of Phases.
type AttrRow struct {
	Total  sim.Time
	Phases [NumPhases]sim.Time
}

// ReqAttr tracks one in-flight host request's attribution state. Obtain one
// from Profiler.BeginReq, transition it with Mark, and finish with End. A nil
// *ReqAttr no-ops every method, so instrumentation sites need no conditionals.
type ReqAttr struct {
	p        *Profiler
	start    sim.Time
	last     sim.Time
	cur      Phase
	stallIdx int // index in p.stalled while admission-stalled, else -1
	buckets  [NumPhases]sim.Time
	next     *ReqAttr // freelist link
}

// Mark charges the time since the last transition to the current phase and
// switches to next.
func (a *ReqAttr) Mark(next Phase) {
	if a == nil {
		return
	}
	now := a.p.tr.now()
	a.buckets[a.cur] += now - a.last
	a.last = now
	a.cur = next
}

// MarkCarved is Mark with a carve-out: of the interval since the last
// transition, up to carve ns are charged to carvePhase and the remainder to
// the current phase. The read-suspend path uses it to charge the fixed
// suspend overhead to GC interference without splitting the simulation's
// single resume event in two (instrumentation must never change the event
// structure).
func (a *ReqAttr) MarkCarved(carvePhase Phase, carve sim.Time, next Phase) {
	if a == nil {
		return
	}
	now := a.p.tr.now()
	elapsed := now - a.last
	if carve > elapsed {
		carve = elapsed
	}
	a.buckets[carvePhase] += carve
	a.buckets[a.cur] += elapsed - carve
	a.last = now
	a.cur = next
}

// End charges the final interval, adds the request's phases to the totals,
// hands its row to the sink or retains it, and recycles the ReqAttr. The
// caller must not use it afterward.
func (a *ReqAttr) End() {
	if a == nil {
		return
	}
	p := a.p
	now := p.tr.now()
	a.buckets[a.cur] += now - a.last
	if a.stallIdx >= 0 {
		p.stallRemove(a)
	}
	row := AttrRow{Total: now - a.start, Phases: a.buckets}
	p.requests++
	for i := 0; i < NumPhases; i++ {
		p.totals[i] += row.Phases[i]
	}
	if p.sink != nil {
		p.sink(row)
	} else if p.rowCap > 0 && len(p.rows) >= p.rowCap {
		p.droppedRows++
	} else {
		p.rows = append(p.rows, row)
	}
	*a = ReqAttr{next: p.free, stallIdx: -1}
	p.free = a
}

// DefaultAttrRowCap bounds retained per-request rows per cell; beyond it,
// requests still accumulate into the phase totals but drop their exact row
// (counted in ssdtp_attr_dropped_rows_total).
const DefaultAttrRowCap = 1 << 20

// Profiler is a tracer's latency-attribution state. Obtain it with
// Tracer.Prof; a nil *Profiler (from a nil tracer) no-ops every method.
type Profiler struct {
	tr          *Tracer
	rows        []AttrRow
	rowCap      int
	droppedRows int64
	totals      [NumPhases]sim.Time
	requests    int64
	sink        func(AttrRow) // when non-nil, receives rows instead of retention
	free        *ReqAttr
	handoff     *ReqAttr // host-interface → device request hand-off slot
	op          *ReqAttr // FTL → bus per-operation context slot
	cur         *ReqAttr // device → FTL current-request context slot
	stalled     []*ReqAttr
	gcBusy      int
}

// Prof returns the tracer's profiler (nil for a nil tracer). The profiler is
// created lazily on first use.
func (t *Tracer) Prof() *Profiler {
	if t == nil {
		return nil
	}
	if t.prof == nil {
		t.prof = &Profiler{tr: t, rowCap: DefaultAttrRowCap}
	}
	return t.prof
}

// SetRowSink diverts each completed request's AttrRow to fn at End time
// instead of retaining it in the profiler. Phase totals and the request
// count still accumulate. The fleet layer installs a sink on every drive's
// profiler so a thousands-of-drives run consumes each row at completion —
// attributing it to the issuing tenant — without holding per-request state
// anywhere. The sink runs inside ReqAttr.End, before the request's
// completion callback, so a caller whose completion fires immediately after
// can observe "its" row from the sink.
// Passing nil restores row retention.
func (p *Profiler) SetRowSink(fn func(AttrRow)) {
	if p != nil {
		p.sink = fn
	}
}

// BeginReq starts attributing a request in the given initial phase. Returns
// nil (inert) when the profiler is nil or its tracer is suspended, so prefill
// traffic and the tracing-off fast path cost one nil check and zero
// allocations.
func (p *Profiler) BeginReq(initial Phase) *ReqAttr {
	if p == nil || !p.tr.Enabled() {
		return nil
	}
	a := p.free
	if a != nil {
		p.free = a.next
		a.next = nil
	} else {
		a = &ReqAttr{}
	}
	now := p.tr.now()
	*a = ReqAttr{p: p, start: now, last: now, cur: initial, stallIdx: -1}
	return a
}

// SetHandoff parks a begun request for the device layer to adopt: the host
// interface begins attribution at submit (to capture queueing), then hands the
// ReqAttr across the synchronous call into Device.{Read,Write,...}Async, whose
// completion wrapper ends it.
func (p *Profiler) SetHandoff(a *ReqAttr) {
	if p != nil {
		p.handoff = a
	}
}

// TakeHandoff claims and clears the hand-off slot.
func (p *Profiler) TakeHandoff() *ReqAttr {
	if p == nil {
		return nil
	}
	a := p.handoff
	p.handoff = nil
	return a
}

// SetCur installs the request the device layer is currently calling into the
// FTL for; the FTL's synchronous paths (cache admission, page-op creation)
// read it with Cur. Cleared (SetCur(nil)) when the call returns.
func (p *Profiler) SetCur(a *ReqAttr) {
	if p != nil {
		p.cur = a
	}
}

// Cur returns the request installed by SetCur.
func (p *Profiler) Cur() *ReqAttr {
	if p == nil {
		return nil
	}
	return p.cur
}

// SetOp installs the request on whose behalf the FTL is about to issue a
// flash operation; the bus claims it with TakeOp at the operation's entry
// point (the call is synchronous) and threads it through the operation's
// existing completion closures.
func (p *Profiler) SetOp(a *ReqAttr) {
	if p != nil {
		p.op = a
	}
}

// TakeOp claims and clears the per-operation context slot.
func (p *Profiler) TakeOp() *ReqAttr {
	if p == nil {
		return nil
	}
	a := p.op
	p.op = nil
	return a
}

// StallPhase returns the phase charged to write-cache admission stalls right
// now: GC interference while any parallel unit is collecting, plain
// cache-flush backpressure otherwise.
func (p *Profiler) StallPhase() Phase {
	if p != nil && p.gcBusy > 0 {
		return PhaseGCStall
	}
	return PhaseCacheStall
}

// StallEnter marks a request admission-stalled: it transitions to the current
// stall phase and registers for re-marking when GC activity starts or stops,
// so a stall spanning a GC transition is charged to each cause exactly.
func (p *Profiler) StallEnter(a *ReqAttr) {
	if p == nil || a == nil {
		return
	}
	a.Mark(p.StallPhase())
	a.stallIdx = len(p.stalled)
	p.stalled = append(p.stalled, a)
}

// StallExit ends a request's admission stall, transitioning it to next.
func (p *Profiler) StallExit(a *ReqAttr, next Phase) {
	if p == nil || a == nil {
		return
	}
	if a.stallIdx >= 0 {
		p.stallRemove(a)
	}
	a.Mark(next)
}

// stallRemove unregisters a from the stalled set (swap-remove; order among
// concurrently stalled requests does not matter, every one is re-marked on a
// transition).
func (p *Profiler) stallRemove(a *ReqAttr) {
	i := a.stallIdx
	last := len(p.stalled) - 1
	p.stalled[i] = p.stalled[last]
	p.stalled[i].stallIdx = i
	p.stalled[last] = nil
	p.stalled = p.stalled[:last]
	a.stallIdx = -1
}

// GCBusy adjusts the count of parallel units currently running garbage
// collection or wear-level scrubbing. On the 0↔1 transitions every
// admission-stalled request is re-marked, flipping its charge between
// PhaseCacheStall and PhaseGCStall at the exact simulated instant the
// interference starts or stops. The gauge tracks simulation state, so it is
// maintained even while the tracer is suspended (a request attributed after
// Resume must see the true GC state).
func (p *Profiler) GCBusy(delta int) {
	if p == nil {
		return
	}
	was := p.gcBusy > 0
	p.gcBusy += delta
	if p.gcBusy < 0 {
		panic("obs: GCBusy underflow")
	}
	if is := p.gcBusy > 0; is != was {
		ph := PhaseCacheStall
		if is {
			ph = PhaseGCStall
		}
		for _, a := range p.stalled {
			a.Mark(ph)
		}
	}
}

// Requests returns the number of completed attributed requests.
func (p *Profiler) Requests() int64 {
	if p == nil {
		return 0
	}
	return p.requests
}

// Rows returns the retained per-request rows (up to the row cap), in
// completion order.
func (p *Profiler) Rows() []AttrRow {
	if p == nil {
		return nil
	}
	return p.rows
}

// TailShares returns, for the slowest fraction tail of completed requests
// (e.g. 0.01 for the p99 tail), each phase's share of their summed latency,
// in parts-per-million. The second result is the latency threshold that
// defines the tail. Returns zeros when no rows were retained.
func (p *Profiler) TailShares(tail float64) ([NumPhases]int64, sim.Time) {
	var shares [NumPhases]int64
	if p == nil || len(p.rows) == 0 {
		return shares, 0
	}
	totals := make([]sim.Time, len(p.rows))
	rec := stats.NewLatencyRecorder()
	for i := range p.rows {
		totals[i] = p.rows[i].Total
		rec.Record(p.rows[i].Total)
	}
	thresh := rec.Percentile((1 - tail) * 100)
	var sum sim.Time
	var phases [NumPhases]sim.Time
	for i := range p.rows {
		if totals[i] < thresh {
			continue
		}
		sum += p.rows[i].Total
		for j := 0; j < NumPhases; j++ {
			phases[j] += p.rows[i].Phases[j]
		}
	}
	if sum == 0 {
		return shares, thresh
	}
	for j := 0; j < NumPhases; j++ {
		shares[j] = int64(phases[j]) * 1_000_000 / int64(sum)
	}
	return shares, thresh
}

// sealAttrMetrics folds the profiler's state into the tracer's metric set
// just before export: cumulative per-phase time, request and dropped-row
// counts, and the p99 tail's per-phase shares.
func (t *Tracer) sealAttrMetrics() {
	if t == nil || t.prof == nil || t.prof.requests == 0 {
		return
	}
	p := t.prof
	t.met.Set("ssdtp_attr_requests_total", p.requests)
	t.met.Set("ssdtp_attr_dropped_rows_total", p.droppedRows)
	for i := 0; i < NumPhases; i++ {
		t.met.Set("ssdtp_attr_"+phaseNames[i]+"_ns_total", int64(p.totals[i]))
	}
	shares, thresh := p.TailShares(0.01)
	t.met.Set("ssdtp_attr_tail_p99_ns", int64(thresh))
	for i := 0; i < NumPhases; i++ {
		t.met.Set("ssdtp_attr_tail_share_"+phaseNames[i]+"_ppm", shares[i])
	}
}
