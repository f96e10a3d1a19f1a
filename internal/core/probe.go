package core

import (
	"sort"

	"ssdtp/internal/nand"
	"ssdtp/internal/sigtrace"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

// ProbeFindings is what hardware probes on the flash pinouts recover about
// a drive (§3.1): electrical observations, no firmware cooperation.
type ProbeFindings struct {
	// Identification captured from the controller's power-on enumeration:
	// vendor strings and geometry straight from READ ID / parameter pages.
	Manufacturer    string
	Model           string
	JEDEC           byte
	ParamGeometryOK bool // parameter-page geometry matched decoded ops

	// PageBytes is the payload size of observed program operations.
	PageBytes int
	// TProg/TRead/TErase are the observed array times.
	TProg, TRead, TErase sim.Time
	// SLCTProg is the fast program mode's array time (0 if never seen).
	SLCTProg sim.Time
	// MaxPlanes is the widest multi-plane operation observed.
	MaxPlanes int
	// ActiveChannels is how many probed channels showed traffic.
	ActiveChannels int
	// OutOfPlace reports whether rewriting one LBA programmed a different
	// physical row (log-structured FTL).
	OutOfPlace bool
	// BackgroundOps counts operations observed while the host was idle.
	BackgroundOps int
	// Ops is the decoded operation count backing the findings.
	Ops int
}

// probeRig wires analyzers onto every channel of a device.
type probeRig struct {
	dev       *ssd.Device
	analyzers []*sigtrace.Analyzer
	activeMax int
}

// attachProbes solders an analyzer to every channel bus.
func attachProbes(dev *ssd.Device) *probeRig {
	r := &probeRig{dev: dev}
	for ch := 0; ch < dev.Array().Channels(); ch++ {
		r.analyzers = append(r.analyzers, sigtrace.Attach(dev.Array().Bus(ch)))
	}
	return r
}

func (r *probeRig) arm() {
	for _, a := range r.analyzers {
		a.Arm()
	}
}

func (r *probeRig) stop() {
	for _, a := range r.analyzers {
		a.Stop()
	}
}

func (r *probeRig) detach() {
	for _, a := range r.analyzers {
		a.Detach()
	}
}

// decodeAll decodes every channel's capture and returns ops sorted by time,
// plus the set of channels that showed activity.
func (r *probeRig) decodeAll() ([]sigtrace.Op, int) {
	var ops []sigtrace.Op
	active := 0
	for _, a := range r.analyzers {
		chOps := sigtrace.Decode(a.Events())
		if len(chOps) > 0 {
			active++
		}
		ops = append(ops, chOps...)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	return ops, active
}

// capturePhaseKeep runs fn with the rig armed, keeping each analyzer's raw
// capture for per-channel inspection afterwards.
func (r *probeRig) capturePhaseKeep(fn func()) {
	for _, a := range r.analyzers {
		a.Clear()
	}
	r.arm()
	fn()
	r.stop()
}

// capturePhase runs fn with the rig armed and returns the ops decoded from
// exactly that phase.
func (r *probeRig) capturePhase(fn func()) []sigtrace.Op {
	for _, a := range r.analyzers {
		a.Clear()
	}
	r.arm()
	fn()
	r.stop()
	ops, active := r.decodeAll()
	if active > r.activeMax {
		r.activeMax = active
	}
	return ops
}

// CharacterizeByProbe runs orchestrated workloads against dev while probing
// all channels, then infers device characteristics purely from the decoded
// electrical traces: page size, array times, plane ganging, placement
// policy (out-of-place vs in-place), channel activity, GC, and background
// operations during idle.
func CharacterizeByProbe(dev *ssd.Device) ProbeFindings {
	eng := dev.Engine()
	rig := attachProbes(dev)
	defer rig.detach()

	span := int64(512 * 1024)

	// Phase 0: power-on. The controller enumerates its chips; READ ID and
	// parameter pages cross the bus in the clear.
	opsBoot := rig.capturePhase(func() {
		done := false
		dev.Boot(func() { done = true })
		eng.RunWhile(func() bool { return !done })
	})

	// Phase A: first write of a span — programs reveal page size, tPROG,
	// plane ganging, channel fan-out.
	opsA := rig.capturePhase(func() {
		must(dev.Write(0, nil, span))
		quiesce(dev)
	})
	// Phase B: immediate rewrite of the same LBAs — row comparison reveals
	// placement policy.
	opsB := rig.capturePhase(func() {
		must(dev.Write(0, nil, span))
		quiesce(dev)
	})
	// Phase C: read back — tR.
	opsC := rig.capturePhase(func() {
		must(dev.Read(0, nil, span))
	})
	// Phase D: overwrite churn past device capacity — erases and GC.
	rounds := 4 * dev.Size() / span
	opsD := rig.capturePhase(func() {
		for i := int64(0); i < rounds; i++ {
			must(dev.Write(0, nil, span))
			quiesce(dev)
		}
	})
	// Phase E: idle window — background operations.
	opsE := rig.capturePhase(func() {
		eng.RunUntil(eng.Now() + 500*sim.Millisecond)
	})

	f := ProbeFindings{ActiveChannels: rig.activeMax}
	f.Ops = len(opsBoot) + len(opsA) + len(opsB) + len(opsC) + len(opsD) + len(opsE)
	f.BackgroundOps = len(opsE)

	// Identification from the boot capture.
	var paramGeom nand.ParsedParameterPage
	for _, op := range opsBoot {
		switch op.Kind {
		case sigtrace.OpReadID:
			if len(op.Data) >= 1 && f.JEDEC == 0 {
				f.JEDEC = op.Data[0]
			}
		case sigtrace.OpReadParam:
			if parsed, ok := nand.ParseParameterPage(op.Data); ok && parsed.CRCOK {
				f.Manufacturer = parsed.Manufacturer
				f.Model = parsed.Model
				paramGeom = parsed
			}
		}
	}

	var progTimes []sim.Time
	rowsA := map[uint32]bool{}
	scan := func(ops []sigtrace.Op, collectRows map[uint32]bool) {
		for _, op := range ops {
			switch op.Kind {
			case sigtrace.OpProgram:
				if op.Planes > 0 && op.DataBytes/op.Planes > f.PageBytes {
					f.PageBytes = op.DataBytes / op.Planes
				}
				if op.Planes > f.MaxPlanes {
					f.MaxPlanes = op.Planes
				}
				progTimes = append(progTimes, op.BusyTime)
				if collectRows != nil {
					for _, row := range op.Rows {
						collectRows[row] = true
					}
				}
			case sigtrace.OpRead:
				if op.BusyTime > f.TRead {
					f.TRead = op.BusyTime
				}
			case sigtrace.OpErase:
				if op.BusyTime > f.TErase {
					f.TErase = op.BusyTime
				}
			}
		}
	}
	scan(opsA, rowsA)
	// Placement: how many of phase B's program rows reuse phase A's rows?
	rowsB := map[uint32]bool{}
	scan(opsB, rowsB)
	overlap := 0
	for row := range rowsB {
		if rowsA[row] {
			overlap++
		}
	}
	f.OutOfPlace = len(rowsB) > 0 && overlap < len(rowsB)/4
	scan(opsC, nil)
	scan(opsD, nil)
	scan(opsE, nil)

	// Cross-check the parameter page's claimed geometry against what the
	// data path showed.
	if paramGeom.PageBytes > 0 {
		f.ParamGeometryOK = paramGeom.PageBytes == f.PageBytes
	}

	// Bimodal program times: the slow mode is tPROG; a cluster well below
	// half of it is pseudo-SLC.
	if len(progTimes) > 0 {
		sort.Slice(progTimes, func(i, j int) bool { return progTimes[i] < progTimes[j] })
		f.TProg = progTimes[len(progTimes)-1]
		for _, t := range progTimes {
			if t < f.TProg/2 && t > f.SLCTProg {
				f.SLCTProg = t
			}
		}
	}
	return f
}
