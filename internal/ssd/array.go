// Package ssd assembles complete simulated solid-state drives: ONFI channel
// buses driving NAND chips, an FTL configured per device model, a host
// interface with request queuing, and the S.M.A.R.T. counter surface the
// paper's black-box experiments consume (§2.2).
//
// Presets model the drives the paper measures or cites: the Crucial MX500
// (RAIN parity, coalescing write cache, 32 KB counter units), the Samsung
// 840 EVO (8 channels split across cores by LBA LSB, TurboWrite pSLC), the
// OCZ Vertex II (the probe target of §3.1), and the unnamed 64/120 GB drives
// of Figure 1. Capacities are scaled down from the real drives so
// experiments run in seconds; every reported metric is a ratio, so scaling
// preserves the paper's shapes (see DESIGN.md).
package ssd

import (
	"ssdtp/internal/ftl"
	"ssdtp/internal/nand"
	"ssdtp/internal/obs"
	"ssdtp/internal/onfi"
	"ssdtp/internal/sim"
)

// Array implements ftl.Flash over per-channel ONFI buses. It is the glue
// that makes FTL decisions pay real (simulated) bus and die time.
type Array struct {
	buses []*onfi.Bus
	chips [][]*nand.Chip
	geom  nand.Geometry
	perCh int
}

// ArrayConfig parameterizes NewArray.
type ArrayConfig struct {
	Channels        int
	ChipsPerChannel int
	Geometry        nand.Geometry
	Timing          nand.Timing
	ID              nand.ChipID
	Reliability     nand.Reliability
	WearLimit       int
}

// NewArray builds channels×chipsPerChannel chips with the given geometry and
// timing on fresh buses.
func NewArray(eng *sim.Engine, cfg ArrayConfig) *Array {
	a := &Array{geom: cfg.Geometry, perCh: cfg.ChipsPerChannel}
	a.chips = make([][]*nand.Chip, cfg.Channels)
	a.buses = make([]*onfi.Bus, cfg.Channels)
	var clock func() int64
	if cfg.Reliability.Enabled() {
		clock = func() int64 { return eng.Now() }
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		a.chips[ch] = make([]*nand.Chip, cfg.ChipsPerChannel)
		for w := 0; w < cfg.ChipsPerChannel; w++ {
			a.chips[ch][w] = nand.NewChip(nand.ChipConfig{
				Geometry:    cfg.Geometry,
				ID:          cfg.ID,
				Reliability: cfg.Reliability,
				Clock:       clock,
				WearLimit:   cfg.WearLimit,
			})
		}
		a.buses[ch] = onfi.NewBus(eng, ch, cfg.Timing, a.chips[ch]...)
	}
	return a
}

// Enumerate runs the controller's power-on chip discovery: READ ID and a
// parameter-page read on every chip of every channel. A probe attached
// before boot captures the whole sequence — free geometry and vendor
// identification (§3.1).
func (a *Array) Enumerate(done func()) {
	pending := 0
	for ch := range a.buses {
		for w := range a.chips[ch] {
			pending += 2
			bus, chip := a.buses[ch], w
			bus.ReadID(chip, func([5]byte, error) {
				pending--
				if pending == 0 && done != nil {
					done()
				}
			})
			bus.ReadParameterPage(chip, func([]byte, error) {
				pending--
				if pending == 0 && done != nil {
					done()
				}
			})
		}
	}
	if pending == 0 && done != nil {
		done()
	}
}

// Geometry implements ftl.Flash.
func (a *Array) Geometry() nand.Geometry { return a.geom }

// Channels implements ftl.Flash.
func (a *Array) Channels() int { return len(a.buses) }

// ChipsPerChannel implements ftl.Flash.
func (a *Array) ChipsPerChannel() int { return a.perCh }

// Read implements ftl.Flash.
func (a *Array) Read(ch, chip int, addr nand.Addr, priority bool, done func(int, error)) {
	if priority {
		a.buses[ch].ReadPri(chip, addr, nil, done)
		return
	}
	a.buses[ch].ReadEx(chip, addr, nil, done)
}

// Program implements ftl.Flash.
func (a *Array) Program(ch, chip int, addr nand.Addr, slc, background bool, done func(error)) {
	if background {
		a.buses[ch].ProgramBG(chip, addr, nil, slc, done)
		return
	}
	if slc {
		a.buses[ch].ProgramSLC(chip, addr, nil, done)
		return
	}
	a.buses[ch].Program(chip, addr, nil, done)
}

// Erase implements ftl.Flash.
func (a *Array) Erase(ch, chip int, addr nand.Addr, background bool, done func(error)) {
	if background {
		a.buses[ch].EraseBG(chip, addr, done)
		return
	}
	a.buses[ch].Erase(chip, addr, done)
}

// ReadTracked implements ftl.TrackedFlash by forwarding to the channel bus.
func (a *Array) ReadTracked(ch, chip int, addr nand.Addr, tag any, done func(int, error)) {
	a.buses[ch].ReadTracked(chip, addr, tag, done)
}

// EraseTracked implements ftl.TrackedFlash by forwarding to the channel bus.
func (a *Array) EraseTracked(ch, chip int, addr nand.Addr, background bool, tag any, done func(error)) {
	a.buses[ch].EraseTracked(chip, addr, background, tag, done)
}

// SnapshotOps implements ftl.TrackedFlash: the in-flight tracked ops across
// every channel (each OpState carries its channel id).
func (a *Array) SnapshotOps() []onfi.OpState {
	var out []onfi.OpState
	for _, b := range a.buses {
		out = append(out, b.SnapshotOps()...)
	}
	return out
}

// ResumeOp implements ftl.TrackedFlash by dispatching on the op's channel.
func (a *Array) ResumeOp(st onfi.OpState, readDone func(int, error), eraseDone func(error)) {
	a.buses[st.Ch].ResumeOp(st, readDone, eraseDone)
}

// WearStats returns the maximum and total per-block erase counts across the
// array — the basis of the wear-leveling S.M.A.R.T. attribute.
func (a *Array) WearStats() (maxErase int, totalErases int64) {
	for _, row := range a.chips {
		for _, c := range row {
			maxErase = max(maxErase, c.MaxEraseCount())
			totalErases += c.Stats().Erases
		}
	}
	return maxErase, totalErases
}

// Bus returns channel ch's bus, the attachment point for hardware probes.
func (a *Array) Bus(ch int) *onfi.Bus { return a.buses[ch] }

// SetTrace binds every channel bus to tr for nand.* spans and latency
// attribution (see onfi.Bus.SetTrace).
func (a *Array) SetTrace(tr *obs.Tracer) {
	for _, b := range a.buses {
		b.SetTrace(tr)
	}
}

// Chip returns the chip at (channel, way), for teardown-style inspection.
func (a *Array) Chip(ch, w int) *nand.Chip { return a.chips[ch][w] }

var _ ftl.TrackedFlash = (*Array)(nil)
