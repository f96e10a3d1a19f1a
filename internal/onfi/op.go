package onfi

import (
	"ssdtp/internal/nand"
	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
)

// Every read, program and erase on the bus is one pooled flashOp (DESIGN.md
// §13). The issuing entry point fills the descriptor and registers it in
// Bus.ops; the op then advances through the stage functions of the stages
// table, each run when the resource the op queued on grants it or when the
// event it scheduled fires (Resource.AcquireArg, Engine.ScheduleArg), so a
// steady-state operation allocates nothing. ResumeOp re-enters the same
// table, so an op restored from a snapshot (DESIGN.md §8) runs the very
// stages it would have run had it never left the bus.
//
// The variants differ only in descriptor fields, never in stage order:
//   - a tracked op (ReadTracked, EraseTracked) carries an opaque tag, is
//     captured by SnapshotOps, takes no attribution slot and opens no nand.*
//     span, so a restored clone cannot diverge from a from-scratch build;
//   - a background op (ProgramBG, EraseBG, a background EraseTracked) marks
//     its die suspendable until its array phase ends;
//   - a priority read that suspends a background op (ReadPri) skips the die
//     queue, pays SuspendOverhead on top of tR, and leaves the die to the
//     op it suspended;
//   - a multi-plane program (ProgramMulti) loops over the pages it holds.

// OpKind is the type of a bus operation. Only reads and erases are ever
// tracked, so only they appear in an OpState.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpErase
	opProgram
)

// OpPhase identifies where in its lifecycle an op is. Queue phases wait on
// a sim.Resource (no pending event); event phases own exactly one pending
// engine event.
type OpPhase uint8

// Operation phases, in lifecycle order.
const (
	OpDieQueue   OpPhase = iota // waiting for the die
	OpWireQueue1                // die held, waiting for wires (cmd+addr cycles)
	OpCmd                       // wires held, cmd+addr cycles on the bus
	OpArray                     // array busy (tR / tPROG / tBERS), bus free
	OpWireQueue2                // array done, waiting for wires (data out; reads only)
	OpXfer                      // wires held, data-out transfer (reads only)
)

func (p OpPhase) queued() bool {
	return p == OpDieQueue || p == OpWireQueue1 || p == OpWireQueue2
}

// kinds holds each op kind's setup and confirm opcodes and its nand.* span
// name.
var kinds = [...]struct {
	setup, confirm byte
	span           string
}{
	OpRead:    {CmdReadSetup, CmdReadConfirm, "nand.read"},
	OpErase:   {CmdEraseSetup, CmdEraseConfirm, "nand.erase"},
	opProgram: {CmdProgramSetup, CmdProgramConfirm, "nand.program"},
}

// stages maps (kind, phase) to the stage that ends the phase: the grant
// callback of a queue phase, the event callback of an event phase. It is
// filled by init because the stages themselves read it.
var stages [opProgram + 1][OpXfer + 1]func(any)

func init() {
	stages = [opProgram + 1][OpXfer + 1]func(any){
		OpRead:    {dieGranted, wiresGranted, cmdDone, readArrayDone, xferGranted, xferDone},
		OpErase:   {dieGranted, wiresGranted, cmdDone, arrayDone},
		opProgram: {dieGranted, wiresGranted, cmdDone, arrayDone},
	}
}

// flashOp is the pooled descriptor of one in-flight bus operation.
type flashOp struct {
	b     *Bus
	kind  OpKind
	phase OpPhase
	chip  int
	die   int // the die every page of the op lives on
	// addrs are the op's pages, all on one die, and data holds one program
	// payload or read destination per page (entries may be nil). Both
	// backing arrays survive recycling, so a multi-plane program allocates
	// nothing once its descriptor has grown.
	addrs []nand.Addr
	data  [][]byte

	tprog sim.Time // program: array time (SLC-derated for pSLC)
	bits  int      // read: bit errors, computed at issue
	err   error    // read: commit error, set at array done

	suspendable bool // background program/erase: clears the die's suspend mark at array done
	pri         bool // priority read suspending a background op: holds no die
	tracked     bool
	tag         any

	qseq uint64    // FIFO position in the current queue phase
	enq  sim.Time  // when the op joined its current queue
	ev   sim.Event // pending event of the current event phase
	idx  int       // slot in Bus.ops

	sp obs.Span
	ax *obs.ReqAttr

	done     func(error)      // program, erase, plain Read
	doneBits func(int, error) // ReadEx, ReadPri, ReadTracked
	next     *flashOp         // bus freelist link
}

// newOp checks chip, pops the bus freelist (or grows it) and registers a
// kind op on addr, with data as its page payload or read destination.
// Scalars left from the descriptor's last use are reset here or set before
// any stage reads them; finish clears the reference fields (DESIGN.md §13
// rule 4).
func (b *Bus) newOp(kind OpKind, chip int, addr nand.Addr, data []byte) *flashOp {
	b.checkChip(chip)
	op := b.free
	if op != nil {
		b.free = op.next
		op.next = nil
	} else {
		op = &flashOp{}
	}
	op.b, op.kind, op.chip, op.die = b, kind, chip, addr.Die
	op.bits, op.suspendable, op.pri, op.tracked = 0, false, false, false
	op.addrs = append(op.addrs, addr)
	op.data = append(op.data, data)
	op.idx = len(b.ops)
	b.ops = append(b.ops, op)
	return op
}

// finish unregisters op, clears its reference fields and recycles it
// *before* invoking its completion callback, so a callback that issues a
// follow-up operation reuses the descriptor it just vacated.
func (b *Bus) finish(op *flashOp, err error) {
	last := len(b.ops) - 1
	if op.idx != last {
		moved := b.ops[last]
		b.ops[op.idx] = moved
		moved.idx = op.idx
	}
	b.ops[last] = nil
	b.ops = b.ops[:last]
	done, doneBits, bits := op.done, op.doneBits, op.bits
	// An index loop, not clear(): the range-clear idiom and clear() both
	// call into the runtime, which costs more than the page or two an op
	// holds.
	for i := 0; i < len(op.data); i++ {
		op.data[i] = nil
	}
	op.addrs, op.data = op.addrs[:0], op.data[:0]
	op.err, op.tag, op.ev, op.ax = nil, nil, sim.Event{}, nil
	op.done, op.doneBits = nil, nil
	op.next = b.free
	b.free = op
	if doneBits != nil {
		doneBits(bits, err)
	} else if done != nil {
		done(err)
	}
}

// queueStage moves op into queue phase p, recording its FIFO position and
// enqueue time for SnapshotOps, and returns the (kind, p) stage the grant
// runs. It and eventStage are small enough to inline into the stages.
func (op *flashOp) queueStage(p OpPhase) func(any) {
	b := op.b
	b.qseq++
	op.phase, op.qseq, op.enq = p, b.qseq, b.eng.Now()
	return stages[op.kind][p]
}

// eventStage moves op into event phase p and returns the (kind, p) stage its
// event runs; the caller keeps the event handle in op.ev.
func (op *flashOp) eventStage(p OpPhase) func(any) {
	op.phase = p
	return stages[op.kind][p]
}

// beginSpan opens op's per-die nand.* span. Callers check that tracing is
// on, and only untracked ops open one.
func (op *flashOp) beginSpan(name string) {
	b := op.b
	op.sp = b.tr.Begin(name,
		obs.Int("ch", int64(b.id)), obs.Int("chip", int64(op.chip)), obs.Int("die", int64(op.die)))
}

// endSpan ends op's span, if it opened one, and clears it for reuse.
func (op *flashOp) endSpan() {
	if op.sp.Active() {
		op.sp.End()
		op.sp = obs.Span{}
	}
}

// issue queues op for its die. Only an untracked op takes the profiler's
// per-operation attribution slot.
func (b *Bus) issue(op *flashOp) {
	if !op.tracked {
		op.ax = b.prof.TakeOp()
	}
	op.ax.Mark(b.dieWaitPhase(op.chip, op.die))
	b.dies[op.chip][op.die].AcquireArg(op.queueStage(OpDieQueue), op)
}

// --- Entry points --------------------------------------------------------

// Read fills buf (PageSize bytes, or nil) from addr on chip and calls
// done(err) when the payload has fully transferred.
func (b *Bus) Read(chip int, addr nand.Addr, buf []byte, done func(error)) {
	op := b.newOp(OpRead, chip, addr, buf)
	op.done = done
	b.issue(op)
}

// ReadEx is Read with the chip's raw bit-error count for the page delivered
// alongside completion — what the controller's ECC engine reports and the
// FTL's refresh logic consumes.
func (b *Bus) ReadEx(chip int, addr nand.Addr, buf []byte, done func(bitErrors int, err error)) {
	b.issue(b.readEx(chip, addr, buf, done))
}

func (b *Bus) readEx(chip int, addr nand.Addr, buf []byte, done func(int, error)) *flashOp {
	op := b.newOp(OpRead, chip, addr, buf)
	op.bits = b.chips[chip].BitErrors(addr)
	op.doneBits = done
	return op
}

// ReadPri is a priority read: if the target die is mid-way through a
// suspendable background program or erase, the read suspends it (paying
// SuspendOverhead) instead of queueing behind it. The suspended op's
// completion time is modeled as unchanged — the resume consumes slack the
// array operation already had.
func (b *Bus) ReadPri(chip int, addr nand.Addr, buf []byte, done func(bitErrors int, err error)) {
	die := addr.Die
	if !b.suspendable[chip][die] || !b.dies[chip][die].Busy() {
		b.ReadEx(chip, addr, buf, done)
		return
	}
	// Suspend path: the read chain minus the die queue; command, address
	// and transfer still serialize on the channel wires. The span is named
	// for the exporter's async track — without a die hold it may overlap the
	// suspended op's span, so it cannot live on the nested per-die track.
	op := b.readEx(chip, addr, buf, done)
	op.pri = true
	op.ax = b.prof.TakeOp()
	op.ax.Mark(obs.PhaseChanWait)
	if b.tr.Enabled() {
		op.beginSpan("nand.read.pri")
	}
	b.wires.AcquireArg(op.queueStage(OpWireQueue1), op)
}

// ReadTracked is ReadEx with a nil payload buffer and a snapshot-visible
// lifecycle. tag is opaque to the bus; the FTL uses it to re-derive the
// completion callback when resuming a captured op.
func (b *Bus) ReadTracked(chip int, addr nand.Addr, tag any, done func(bitErrors int, err error)) {
	op := b.readEx(chip, addr, nil, done)
	op.tracked, op.tag = true, tag
	b.issue(op)
}

// Program writes data (PageSize bytes, or nil) to addr on chip, invoking
// done(err) when the array operation completes.
func (b *Bus) Program(chip int, addr nand.Addr, data []byte, done func(error)) {
	b.issue(b.program(chip, addr, data, b.timing.ProgramPage, false, done))
}

// ProgramSLC is Program with pseudo-SLC array timing (one bit per cell
// programs ~4x faster). The bus protocol is identical — which is exactly why
// a probe-based decoder cannot distinguish SLC-mode programs except by their
// busy time.
func (b *Bus) ProgramSLC(chip int, addr nand.Addr, data []byte, done func(error)) {
	b.issue(b.program(chip, addr, data, b.timing.SLCMode().ProgramPage, false, done))
}

// ProgramBG issues a background (relocation/refresh) program whose array
// phase is suspendable by priority reads — the ONFI program-suspend feature
// preemptible-GC designs rely on.
func (b *Bus) ProgramBG(chip int, addr nand.Addr, data []byte, slc bool, done func(error)) {
	tprog := b.timing.ProgramPage
	if slc {
		tprog = b.timing.SLCMode().ProgramPage
	}
	b.issue(b.program(chip, addr, data, tprog, true, done))
}

// ProgramMulti issues a multi-plane program: all addresses must be on the
// same die. Payloads transfer sequentially on the bus; the single array
// operation covers all planes. done(err) fires at completion with the first
// commit error, if any.
func (b *Bus) ProgramMulti(chip int, addrs []nand.Addr, data [][]byte, done func(error)) {
	if len(addrs) == 0 || len(data) != len(addrs) {
		panic("onfi: ProgramMulti needs matching non-empty addrs and data")
	}
	for _, a := range addrs[1:] {
		if a.Die != addrs[0].Die {
			panic("onfi: multi-plane program spans dies")
		}
	}
	op := b.program(chip, addrs[0], data[0], b.timing.ProgramPage, false, done)
	op.addrs = append(op.addrs, addrs[1:]...)
	op.data = append(op.data, data[1:]...)
	b.issue(op)
}

func (b *Bus) program(chip int, addr nand.Addr, data []byte, tprog sim.Time, background bool, done func(error)) *flashOp {
	op := b.newOp(opProgram, chip, addr, data)
	op.tprog, op.done = tprog, done
	b.setBackground(op, background)
	return op
}

// Erase erases the block containing addr on chip; done(err) fires when the
// array operation completes.
func (b *Bus) Erase(chip int, addr nand.Addr, done func(error)) {
	b.issue(b.erase(chip, addr, false, done))
}

// EraseBG issues an erase whose array phase is suspendable by priority
// reads (erase-suspend, standard on modern parts).
func (b *Bus) EraseBG(chip int, addr nand.Addr, done func(error)) {
	b.issue(b.erase(chip, addr, true, done))
}

// EraseTracked is Erase (or, with background set, EraseBG) with a
// snapshot-visible lifecycle.
func (b *Bus) EraseTracked(chip int, addr nand.Addr, background bool, tag any, done func(error)) {
	op := b.erase(chip, addr, background, done)
	op.tracked, op.tag = true, tag
	b.issue(op)
}

func (b *Bus) erase(chip int, addr nand.Addr, background bool, done func(error)) *flashOp {
	op := b.newOp(OpErase, chip, addr, nil)
	op.done = done
	b.setBackground(op, background)
	return op
}

// setBackground arms program/erase-suspend on op's die for a background op.
func (b *Bus) setBackground(op *flashOp, background bool) {
	op.suspendable = background
	if background {
		b.markSuspendable(op.chip, op.die, true)
	}
}

// --- Stages --------------------------------------------------------------

func dieGranted(arg any) {
	op := arg.(*flashOp)
	if !op.tracked && op.b.tr.Enabled() {
		op.beginSpan(kinds[op.kind].span)
	}
	op.ax.Mark(obs.PhaseChanWait)
	op.b.wires.AcquireArg(op.queueStage(OpWireQueue1), op)
}

// wiresGranted puts the command sequence on the bus, per page: setup
// command, address cycles (an erase sends the row bytes only), the program
// payload, and the confirm command — a plane confirm on all but the last
// page of a multi-plane program.
func wiresGranted(arg any) {
	op := arg.(*flashOp)
	b := op.b
	k := &kinds[op.kind]
	op.ax.Mark(obs.PhaseNAND)
	var dur sim.Time
	for i, a := range op.addrs {
		dur += b.emitCmdAddrAt(op.chip, k.setup, op.kind != OpErase, a, dur)
		confirm := k.confirm
		if op.kind == opProgram {
			n := b.chips[op.chip].Geometry().PageSize
			xfer := b.timing.TransferTime(n)
			if b.observed() {
				b.emit(BusEvent{Time: b.eng.Now() + dur, Dur: xfer, Bus: b.id, Chip: op.chip, Die: op.die, Kind: EventDataIn, Len: n})
			}
			dur += xfer
			b.stats.BytesIn += int64(n)
			if i < len(op.addrs)-1 {
				confirm = CmdProgramPlane
			}
		}
		dur += b.emitCmdAt(op.chip, op.die, confirm, dur)
	}
	op.ev = b.eng.ScheduleArg(dur, op.eventStage(OpCmd), op)
}

// cmdDone drops R/B# and frees the wires for the array phase.
func cmdDone(arg any) {
	op := arg.(*flashOp)
	b := op.b
	b.emitEdge(op.chip, op.die, EventBusy)
	b.wires.Release()
	var t sim.Time
	switch op.kind {
	case OpRead:
		t = b.timing.ReadPage
		if op.pri {
			t += SuspendOverhead
		}
	case OpErase:
		t = b.timing.EraseBlock
	default:
		t = op.tprog
	}
	op.ev = b.eng.ScheduleArg(t, op.eventStage(OpArray), op)
}

// arrayDone commits a program or erase to the chip and releases the die.
func arrayDone(arg any) {
	op := arg.(*flashOp)
	b := op.b
	c := b.chips[op.chip]
	var err error
	for i, a := range op.addrs {
		var e error
		if op.kind == OpErase {
			e = c.Erase(a)
			b.stats.Erases++
		} else {
			e = c.Program(a, op.data[i])
			b.stats.Programs++
		}
		if err == nil {
			err = e
		}
	}
	b.emitEdge(op.chip, op.die, EventReady)
	op.endSpan()
	b.dies[op.chip][op.die].Release()
	if op.suspendable {
		b.markSuspendable(op.chip, op.die, false)
	}
	b.finish(op, err)
}

// readArrayDone latches the page into the chip's register and queues for
// the wires to transfer it out.
func readArrayDone(arg any) {
	op := arg.(*flashOp)
	b := op.b
	op.err = b.chips[op.chip].Read(op.addrs[0], op.data[0])
	b.emitEdge(op.chip, op.die, EventReady)
	if op.pri {
		// The fixed suspend overhead within the array interval is GC
		// interference (the read only pays it because a background op held
		// the die); the rest is array time.
		op.ax.MarkCarved(obs.PhaseGCStall, SuspendOverhead, obs.PhaseChanWait)
	} else {
		op.ax.Mark(obs.PhaseChanWait)
	}
	b.wires.AcquireArg(op.queueStage(OpWireQueue2), op)
}

func xferGranted(arg any) {
	op := arg.(*flashOp)
	b := op.b
	n := b.chips[op.chip].Geometry().PageSize
	op.ax.Mark(obs.PhaseNAND)
	xfer := b.timing.TransferTime(n)
	if b.observed() {
		b.emit(BusEvent{Time: b.eng.Now(), Dur: xfer, Bus: b.id, Chip: op.chip, Die: op.die, Kind: EventDataOut, Len: n})
	}
	b.stats.BytesOut += int64(n)
	b.stats.Reads++
	op.ev = b.eng.ScheduleArg(xfer, op.eventStage(OpXfer), op)
}

// xferDone releases the wires before ending the span and releasing the die
// (DESIGN.md §13 rule 5).
func xferDone(arg any) {
	op := arg.(*flashOp)
	b := op.b
	b.wires.Release()
	op.endSpan()
	if !op.pri {
		b.dies[op.chip][op.die].Release()
	}
	b.finish(op, op.err)
}
