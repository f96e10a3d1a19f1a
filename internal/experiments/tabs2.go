package experiments

import (
	"fmt"

	"ssdtp/internal/sigtrace"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
	"ssdtp/internal/workload"
)

// TabS2Row is one sampling-rate point of the probe-equipment study.
type TabS2Row struct {
	RateMHz      float64
	Events       int
	Aliased      int64
	DecodedOps   int
	PageSizeOK   bool
	TimingOK     bool // tPROG recovered within 10%
	DecodeIntact bool // all reference ops recovered with correct content
}

// TabS2Result quantifies §3.1's equipment constraint: how reverse-
// engineering fidelity degrades with the analyzer's sampling rate ("the
// probing hardware must be able to handle high-rate tracing and data
// collection... a suitable logic analyzer costs around $20,000").
type TabS2Result struct {
	ReferenceOps int
	Rows         []TabS2Row
}

// MinFullFidelityMHz returns the lowest sampled rate that still decoded
// everything (0 if none did).
func (r TabS2Result) MinFullFidelityMHz() float64 {
	best := 0.0
	for _, row := range r.Rows {
		if row.DecodeIntact && (best == 0 || row.RateMHz < best) {
			best = row.RateMHz
		}
	}
	return best
}

// Table renders the study.
func (r TabS2Result) Table() string {
	t := stats.NewTable("sample rate", "events", "aliased edges", "decoded ops", "page size OK", "tPROG OK")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.0f MHz", row.RateMHz), row.Events, row.Aliased,
			fmt.Sprintf("%d/%d", row.DecodedOps, r.ReferenceOps), row.PageSizeOK, row.TimingOK)
	}
	return t.String() + fmt.Sprintf("full protocol fidelity requires >= %.0f MHz sampling on this bus\n",
		r.MinFullFidelityMHz())
}

// TabS2ProbeRate sweeps analyzer sampling rates against a fixed workload on
// the OCZ Vertex II model and measures decode fidelity at each.
func TabS2ProbeRate(scale Scale, seed int64) TabS2Result {
	rates := []float64{1000, 100, 40, 10, 2} // MHz
	reqs := scale.pick(24, 128)

	run := func(resolution sim.Time) (int, int64, []sigtrace.Op) {
		cfg := ssd.Vertex2()
		cfg.FTL.Seed = seed
		dev := ssd.NewDevice(sim.NewEngine(), cfg)
		an := sigtrace.AttachRate(dev.Array().Bus(0), resolution)
		an.Arm()
		workload.Run(dev, workload.Spec{
			Name: "probe-load", Pattern: workload.Sequential, RequestBytes: 16384, SyncEvery: 1,
		}, workload.Options{MaxRequests: reqs})
		an.Stop()
		return len(an.Events()), an.Aliased(), sigtrace.Decode(an.Events())
	}

	// Reference: ideal analyzer.
	_, _, refOps := run(0)
	refPrograms := 0
	var refTProg sim.Time
	for _, op := range refOps {
		if op.Kind == sigtrace.OpProgram {
			refPrograms++
			if op.BusyTime > refTProg {
				refTProg = op.BusyTime
			}
		}
	}

	out := TabS2Result{ReferenceOps: len(refOps)}
	for _, mhz := range rates {
		resolution := sim.Time(1000 / mhz) // ns per sample
		events, aliased, ops := run(resolution)
		row := TabS2Row{RateMHz: mhz, Events: events, Aliased: aliased, DecodedOps: len(ops)}
		pageOK, timingOK := false, false
		for _, op := range ops {
			if op.Kind == sigtrace.OpProgram {
				if op.Planes > 0 && op.DataBytes/op.Planes == 4096 {
					pageOK = true
				}
				if refTProg > 0 {
					d := op.BusyTime - refTProg
					if d < 0 {
						d = -d
					}
					if d*10 <= refTProg {
						timingOK = true
					}
				}
			}
		}
		row.PageSizeOK = pageOK
		row.TimingOK = timingOK
		row.DecodeIntact = len(ops) == len(refOps) && pageOK && timingOK
		out.Rows = append(out.Rows, row)
	}
	return out
}
