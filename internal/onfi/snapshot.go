package onfi

import (
	"fmt"

	"ssdtp/internal/nand"
	"ssdtp/internal/sim"
)

// Snapshot and resume of a channel and of its in-flight tracked ops
// (DESIGN.md §8). The FTL issues its background work — GC victim reads,
// GC/wear-level erases, scrub reads — through ReadTracked/EraseTracked so
// that a drive image captured with trailing GC still in the pipe can be
// restored mid-operation.

// OpState is the serializable state of one tracked op at snapshot time.
// Queue-phase ops record their FIFO position (QSeq); event-phase ops record
// their pending event's fire time and engine sequence, so restore can replay
// both resource order and same-instant event order exactly.
type OpState struct {
	Ch          int
	Kind        OpKind
	Chip        int
	Addr        nand.Addr
	Phase       OpPhase
	Bits        int
	Err         error
	Suspendable bool
	QSeq        uint64
	EnqueuedAt  sim.Time // queue phases: when the op joined its queue
	EventTime   sim.Time
	EventSeq    uint64
	Tag         any
}

// Queued reports whether the op is waiting on a resource (as opposed to
// owning a pending engine event).
func (st OpState) Queued() bool { return st.Phase.queued() }

// SnapshotOps captures the lifecycle state of every tracked op in flight on
// this channel. The bus's own state (stats, resource usage, suspend marks)
// is captured separately by Snapshot.
func (b *Bus) SnapshotOps() []OpState {
	var out []OpState
	for _, op := range b.ops {
		if !op.tracked {
			continue
		}
		st := OpState{
			Ch: b.id, Kind: op.kind, Chip: op.chip, Addr: op.addrs[0], Phase: op.phase,
			Bits: op.bits, Err: op.err, Suspendable: op.suspendable, QSeq: op.qseq,
			EnqueuedAt: op.enq, Tag: op.tag,
		}
		if !op.phase.queued() {
			if !op.ev.Pending() {
				panic("onfi: event-phase op without a pending event")
			}
			st.EventTime = op.ev.Time()
			st.EventSeq = op.ev.Seq()
		}
		out = append(out, st)
	}
	return out
}

// ResumeOp reinstates a captured op on this (freshly restored) bus. The
// caller owns global ordering: queue-phase ops must be resumed in QSeq order
// per channel before any event-phase op is resumed (sorted by EventSeq
// across channels), so resource FIFO positions and same-instant event order
// come back exactly. A queue-phase resume requires its resource to be busy —
// guaranteed when the bus state was captured between events, because a
// released resource grants its waiters synchronously.
func (b *Bus) ResumeOp(st OpState, readDone func(bitErrors int, err error), eraseDone func(error)) {
	if st.Ch != b.id {
		panic(fmt.Sprintf("onfi: ResumeOp for channel %d on bus %d", st.Ch, b.id))
	}
	op := b.newOp(st.Kind, st.Chip, st.Addr, nil)
	op.phase, op.bits, op.err, op.suspendable = st.Phase, st.Bits, st.Err, st.Suspendable
	op.qseq, op.enq, op.tracked, op.tag = st.QSeq, st.EnqueuedAt, true, st.Tag
	if st.Kind == OpRead {
		op.doneBits = readDone
	} else {
		op.done = eraseDone
	}
	b.qseq = max(b.qseq, st.QSeq)
	stage := stages[st.Kind][st.Phase]
	if stage == nil {
		panic(fmt.Sprintf("onfi: ResumeOp invalid phase %d for kind %d", st.Phase, st.Kind))
	}
	if !st.Queued() {
		op.ev = b.eng.AtArg(st.EventTime, stage, op)
		return
	}
	r := b.wires
	if st.Phase == OpDieQueue {
		r = b.dies[st.Chip][st.Addr.Die]
	}
	if !r.Busy() {
		panic("onfi: ResumeOp queue phase on an idle resource")
	}
	// AcquireSinceArg keeps the resource's wait accounting identical to a
	// from-scratch run: the wait charged at grant spans from the op's
	// original enqueue time, not from the restore instant.
	r.AcquireSinceArg(st.EnqueuedAt, stage, op)
}

// ResourceState is the utilization accounting of one sim.Resource at
// snapshot time.
type ResourceState struct {
	Busy      bool
	Since     sim.Time
	Total     sim.Time
	WaitTotal sim.Time
	Waits     int64
}

func captureResource(r *sim.Resource) ResourceState {
	return ResourceState{
		Busy: r.Busy(), Since: r.BusySince, Total: r.BusyTime(),
		WaitTotal: r.WaitTime(), Waits: r.Waits(),
	}
}

// BusState is a deep copy of a channel's mutable state, excluding tracked
// ops (captured by SnapshotOps) and observers (snapshotting an observed bus
// panics — probe attachments are measurement fixtures, not drive state).
type BusState struct {
	Stats       BusStats
	Wires       ResourceState
	Dies        [][]ResourceState
	Suspendable [][]bool
}

// Snapshot captures the channel's stats, resource usage, and suspend marks.
func (b *Bus) Snapshot() *BusState {
	if b.observed() {
		panic("onfi: Snapshot with observers attached")
	}
	st := &BusState{Stats: b.stats, Wires: captureResource(b.wires)}
	st.Dies = make([][]ResourceState, len(b.dies))
	st.Suspendable = make([][]bool, len(b.suspendable))
	for i := range b.dies {
		st.Dies[i] = make([]ResourceState, len(b.dies[i]))
		for d, r := range b.dies[i] {
			st.Dies[i][d] = captureResource(r)
		}
		st.Suspendable[i] = append([]bool(nil), b.suspendable[i]...)
	}
	return st
}

// Restore overwrites a freshly built channel's state with a snapshot. The
// bus must have no ops in flight; in-flight ops are reinstated afterward via
// ResumeOp, re-acquiring the resources whose busy/queue accounting this
// call reinstates.
func (b *Bus) Restore(st *BusState) {
	if len(b.ops) != 0 {
		panic("onfi: Restore on a bus with ops in flight")
	}
	if len(st.Dies) != len(b.dies) {
		panic("onfi: Restore chip-count mismatch")
	}
	b.stats = st.Stats
	b.wires.RestoreUsage(st.Wires.Busy, st.Wires.Since, st.Wires.Total, st.Wires.WaitTotal, st.Wires.Waits)
	for i := range b.dies {
		if len(st.Dies[i]) != len(b.dies[i]) {
			panic("onfi: Restore die-count mismatch")
		}
		for d, r := range b.dies[i] {
			ds := st.Dies[i][d]
			r.RestoreUsage(ds.Busy, ds.Since, ds.Total, ds.WaitTotal, ds.Waits)
		}
		copy(b.suspendable[i], st.Suspendable[i])
	}
}
