// Package jtag implements an IEEE 1149.1 test access port: the 16-state TAP
// controller, instruction/data register shifting, a GPIO bit-bang adapter
// (the paper drove the 840 EVO's JTAG pins from a Novena board through
// Linux's pinctrl subsystem, §3.2), and an OpenOCD-style debug client with
// halt/resume, memory access and PC sampling.
//
// The chip side is abstracted as a Target; the firmware package provides
// the 840 EVO-like target whose memory map the reverse-engineering toolkit
// explores.
package jtag

import "fmt"

// State is a TAP controller state.
type State int

// The 16 IEEE 1149.1 TAP states.
const (
	TestLogicReset State = iota
	RunTestIdle
	SelectDRScan
	CaptureDR
	ShiftDR
	Exit1DR
	PauseDR
	Exit2DR
	UpdateDR
	SelectIRScan
	CaptureIR
	ShiftIR
	Exit1IR
	PauseIR
	Exit2IR
	UpdateIR
)

var stateNames = [...]string{
	"Test-Logic-Reset", "Run-Test/Idle", "Select-DR-Scan", "Capture-DR",
	"Shift-DR", "Exit1-DR", "Pause-DR", "Exit2-DR", "Update-DR",
	"Select-IR-Scan", "Capture-IR", "Shift-IR", "Exit1-IR", "Pause-IR",
	"Exit2-IR", "Update-IR",
}

func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// nextState is the IEEE 1149.1 state diagram: nextState[s][tms] is the
// state after one TCK rising edge from s with TMS at level tms.
var nextState = [16][2]State{
	TestLogicReset: {RunTestIdle, TestLogicReset},
	RunTestIdle:    {RunTestIdle, SelectDRScan},
	SelectDRScan:   {CaptureDR, SelectIRScan},
	CaptureDR:      {ShiftDR, Exit1DR},
	ShiftDR:        {ShiftDR, Exit1DR},
	Exit1DR:        {PauseDR, UpdateDR},
	PauseDR:        {PauseDR, Exit2DR},
	Exit2DR:        {ShiftDR, UpdateDR},
	UpdateDR:       {RunTestIdle, SelectDRScan},
	SelectIRScan:   {CaptureIR, TestLogicReset},
	CaptureIR:      {ShiftIR, Exit1IR},
	ShiftIR:        {ShiftIR, Exit1IR},
	Exit1IR:        {PauseIR, UpdateIR},
	PauseIR:        {PauseIR, Exit2IR},
	Exit2IR:        {ShiftIR, UpdateIR},
	UpdateIR:       {RunTestIdle, SelectDRScan},
}

// NextState returns the TAP state after one TCK rising edge with the given
// TMS level, per the IEEE 1149.1 state diagram.
func NextState(s State, tms bool) State {
	if tms {
		return nextState[s][1]
	}
	return nextState[s][0]
}

// Target is the chip behind the TAP: it defines the instruction register
// width and the data register behaviour per instruction.
type Target interface {
	// IRWidth returns the instruction register width in bits, 1 to 64. It
	// must be constant: NewTAP reads it once.
	IRWidth() int
	// CaptureDR returns the value parallel-loaded into the DR shift chain
	// when Capture-DR passes with the given latched instruction.
	CaptureDR(ir uint64) uint64
	// DRWidth returns the DR chain length for the instruction.
	DRWidth(ir uint64) int
	// UpdateDR commits a shifted-in DR value on Update-DR.
	UpdateDR(ir uint64, value uint64)
	// ResetTAP is invoked in Test-Logic-Reset (latches IDCODE, clears
	// debug state as the silicon would).
	ResetTAP()
}

// IRBypass is the all-ones BYPASS instruction (width-agnostic).
func IRBypass(width int) uint64 { return (1 << uint(width)) - 1 }

// TAP is the state machine plus shift registers, clocked one TCK edge at a
// time.
type TAP struct {
	target  Target
	irWidth int    // Target.IRWidth, read once
	irMask  uint64 // IRBypass(irWidth)

	state   State
	ir      uint64 // latched instruction
	shiftIR uint64
	shiftDR uint64
	drWidth int
}

// NewTAP wires a TAP to its target, starting in Test-Logic-Reset.
func NewTAP(t Target) *TAP {
	w := t.IRWidth()
	tap := &TAP{target: t, irWidth: w, irMask: IRBypass(w), state: TestLogicReset}
	tap.ir = tap.irMask // 1149.1: reset latches IDCODE or BYPASS
	t.ResetTAP()
	return tap
}

// IR returns the latched instruction.
func (t *TAP) IR() uint64 { return t.ir }

// Clock advances the TAP by one TCK rising edge, sampling tms/tdi and
// returning the TDO level. While in a Shift state, the edge presents the
// shift register's LSB on TDO and shifts tdi into the MSB; the edge that
// *enters* a Shift state does not shift (per the 1149.1 timing diagram).
func (t *TAP) Clock(tms, tdi bool) (tdo bool) {
	switch t.state {
	case ShiftIR:
		tdo = t.shiftIR&1 != 0
		t.shiftIR >>= 1
		if tdi {
			t.shiftIR |= 1 << uint(t.irWidth-1)
		}
	case ShiftDR:
		tdo = t.shiftDR&1 != 0
		t.shiftDR >>= 1
		if tdi {
			t.shiftDR |= 1 << uint(t.drWidth-1)
		}
	}
	next := NextState(t.state, tms)
	switch next {
	case TestLogicReset:
		t.ir = t.irMask
		t.target.ResetTAP()
	case CaptureIR:
		t.shiftIR = 0b01 // 1149.1 mandates xxxx01 in Capture-IR
	case UpdateIR:
		t.ir = t.shiftIR & t.irMask
	case CaptureDR:
		t.drWidth = t.target.DRWidth(t.ir)
		t.shiftDR = t.target.CaptureDR(t.ir)
	case UpdateDR:
		t.target.UpdateDR(t.ir, t.shiftDR)
	}
	t.state = next
	return tdo
}
