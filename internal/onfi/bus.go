package onfi

import (
	"fmt"

	"ssdtp/internal/nand"
	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
)

// BusStats aggregates traffic counters for one channel.
type BusStats struct {
	Reads     int64
	Programs  int64
	Erases    int64
	BytesIn   int64 // host -> chip (program payloads)
	BytesOut  int64 // chip -> host (read payloads)
	CmdCycles int64
}

// Bus is one flash channel: a set of chips sharing command/address/data
// wires. Transfers serialize on the bus; array operations proceed in
// parallel across dies and chips. All completion callbacks fire on the
// simulation engine.
type Bus struct {
	eng    *sim.Engine
	id     int
	timing nand.Timing
	chips  []*nand.Chip
	wires  *sim.Resource
	dies   [][]*sim.Resource // [chip][die]
	// suspendable marks dies whose current array operation is a
	// background program or erase that a priority read may suspend.
	suspendable [][]bool
	obs         []observerReg
	nextObsID   int
	stats       BusStats
	// ops are the in-flight operations (see op.go); qseq orders their
	// resource-queue entries for snapshot/restore; free recycles their
	// descriptors so steady-state traffic allocates nothing.
	ops  []*flashOp
	qseq uint64
	free *flashOp

	// Observability (SetTrace): nand.* spans for per-die Perfetto tracks and
	// latency-attribution phase marks. Only untracked operations record
	// them — tracked (GC/scrub) operations can straddle a snapshot, and a
	// restored clone must not diverge from a from-scratch build.
	tr   *obs.Tracer
	prof *obs.Profiler
}

// SuspendOverhead is the array-time cost of suspending an in-progress
// background program or erase to service a priority read (vendor
// datasheets quote tens of microseconds).
const SuspendOverhead = 50 * sim.Microsecond

// observerReg pairs an observer with the registration id its detach closure
// removes it by (Observer values, e.g. ObserverFunc, are not comparable).
type observerReg struct {
	id int
	o  Observer
}

// NewBus wires chips (all sharing timing t) onto channel id of engine eng.
func NewBus(eng *sim.Engine, id int, t nand.Timing, chips ...*nand.Chip) *Bus {
	b := &Bus{eng: eng, id: id, timing: t, chips: chips, wires: sim.NewResource(eng)}
	b.dies = make([][]*sim.Resource, len(chips))
	b.suspendable = make([][]bool, len(chips))
	for i, c := range chips {
		b.dies[i] = make([]*sim.Resource, c.Geometry().Dies)
		b.suspendable[i] = make([]bool, c.Geometry().Dies)
		for d := range b.dies[i] {
			b.dies[i][d] = sim.NewResource(eng)
		}
	}
	return b
}

// SetTrace binds the bus to a tracer: untracked operations record nand.*
// spans (ch/chip/die-attributed, rendered as per-die tracks by the Perfetto
// exporter) and charge latency-attribution phases on the request installed
// via the profiler's per-operation context slot. A nil tracer disables both.
func (b *Bus) SetTrace(tr *obs.Tracer) {
	b.tr = tr
	b.prof = tr.Prof()
}

// dieWaitPhase classifies time about to be spent queued for a die: waiting
// out a suspendable background program/erase is GC interference; anything
// else is foreground channel contention.
func (b *Bus) dieWaitPhase(chip, die int) obs.Phase {
	if b.suspendable[chip][die] {
		return obs.PhaseGCStall
	}
	return obs.PhaseChanWait
}

// ID returns the channel index.
func (b *Bus) ID() int { return b.id }

// Timing returns the channel timing parameters.
func (b *Bus) Timing() nand.Timing { return b.timing }

// Stats returns a copy of the traffic counters.
func (b *Bus) Stats() BusStats { return b.stats }

// Utilization returns the cumulative time the bus wires were held.
func (b *Bus) Utilization() sim.Time { return b.wires.BusyTime() }

// WaitTime returns the cumulative time operations spent queued for the
// channel wires before being granted.
func (b *Bus) WaitTime() sim.Time { return b.wires.WaitTime() }

// Waits returns the number of wire acquisitions that had to queue.
func (b *Bus) Waits() int64 { return b.wires.Waits() }

// DieBusyTime returns chip's cumulative die-held time, summed over its dies.
func (b *Bus) DieBusyTime(chip int) sim.Time {
	var total sim.Time
	for _, d := range b.dies[chip] {
		total += d.BusyTime()
	}
	return total
}

// DieWaitTime returns chip's cumulative die-queue wait, summed over its dies.
func (b *Bus) DieWaitTime(chip int) sim.Time {
	var total sim.Time
	for _, d := range b.dies[chip] {
		total += d.WaitTime()
	}
	return total
}

// Observe registers an observer for all subsequent bus events and returns a
// function that detaches it. Attaching an observer is the simulated
// equivalent of soldering probe wires to the package pinout.
func (b *Bus) Observe(o Observer) (detach func()) {
	b.nextObsID++
	id := b.nextObsID
	b.obs = append(b.obs, observerReg{id: id, o: o})
	return func() {
		for i, r := range b.obs {
			if r.id == id {
				b.obs = append(b.obs[:i], b.obs[i+1:]...)
				return
			}
		}
	}
}

func (b *Bus) emit(ev BusEvent) {
	for _, r := range b.obs {
		r.o.OnBusEvent(ev)
	}
}

func (b *Bus) observed() bool { return len(b.obs) > 0 }

func (b *Bus) checkChip(chip int) *nand.Chip {
	if chip < 0 || chip >= len(b.chips) {
		panic(fmt.Sprintf("onfi: chip %d out of range on bus %d", chip, b.id))
	}
	return b.chips[chip]
}

func (b *Bus) markSuspendable(chip, die int, v bool) {
	b.suspendable[chip][die] = v
}

// emitCmdAddrAt puts a command cycle and the address cycles of page a on
// the bus, offset from now, and returns their duration: the two column
// bytes (withColumn, page operations) and then the three row bytes. With no
// observer attached only the duration is computed.
func (b *Bus) emitCmdAddrAt(chip int, cmd byte, withColumn bool, a nand.Addr, offset sim.Time) sim.Time {
	dur := b.emitCmdAt(chip, a.Die, cmd, offset)
	cycles := RowAddrCycles
	if withColumn {
		cycles = PageAddrCycles
	}
	if b.observed() {
		t := offset + dur
		if withColumn {
			for i := 0; i < ColumnAddrCycles; i++ {
				t += b.emitAddrAt(chip, a.Die, 0, t)
			}
		}
		for _, ab := range RowBytes(b.chips[chip].Geometry().RowAddress(a)) {
			t += b.emitAddrAt(chip, a.Die, ab, t)
		}
	}
	return dur + sim.Time(cycles)*b.timing.AddrCycle
}

// emitCmdAt puts one command cycle on the bus, offset from now, and returns
// its duration.
func (b *Bus) emitCmdAt(chip, die int, cmd byte, offset sim.Time) sim.Time {
	if b.observed() {
		b.emitAt(chip, die, EventCmd, cmd, offset)
	}
	b.stats.CmdCycles++
	return b.timing.CmdCycle
}

// emitAddrAt puts one address cycle on the bus, offset from now, and
// returns its duration.
func (b *Bus) emitAddrAt(chip, die int, ab byte, offset sim.Time) sim.Time {
	if b.observed() {
		b.emitAt(chip, die, EventAddr, ab, offset)
	}
	return b.timing.AddrCycle
}

// emitEdge reports an R/B# transition (EventBusy or EventReady) of a die.
func (b *Bus) emitEdge(chip, die int, k EventKind) {
	if b.observed() {
		b.emitAt(chip, die, k, 0, 0)
	}
}

// emitAt reports a cycle or edge event, offset from now, to the observers.
func (b *Bus) emitAt(chip, die int, k EventKind, by byte, offset sim.Time) {
	b.emit(BusEvent{Time: b.eng.Now() + offset, Bus: b.id, Chip: chip, Die: die, Kind: k, Byte: by})
}

// The read, program and erase entry points and their stages live in op.go;
// snapshot and resume of in-flight ops in snapshot.go.
