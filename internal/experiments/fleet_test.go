package experiments

import (
	"fmt"
	"strings"
	"testing"

	"ssdtp/internal/fleet"
	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

// The fleet co-simulation is held to the same observability contract as the
// single-drive grids: the exported trace, metrics, timeline and telemetry
// of a fleet run are byte-identical run to run and for any worker count, with
// tier-level metrics, timeline rows and log-page rows present.
func TestFleetObsByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet regeneration")
	}
	type export struct{ trace, metrics, timeline, telemetry string }
	render := func(workers int) export {
		col := obs.NewCollector()
		col.SetTimeline(sim.Millisecond)
		col.SetTelemetry(sim.Millisecond)
		prev := observer()
		SetObserver(col)
		defer SetObserver(prev)
		withPool(&runner.Pool{Workers: workers}, func() { FleetTail(Quick, 42) })
		var tb, mb, lb, xb strings.Builder
		if err := col.WriteJSONL(&tb); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteMetrics(&mb); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteTimelineCSV(&lb); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteTelemetryJSONL(&xb); err != nil {
			t.Fatal(err)
		}
		return export{tb.String(), mb.String(), lb.String(), xb.String()}
	}
	e1a := render(1)
	e1b := render(1)
	e8 := render(8)
	if !strings.Contains(e1a.metrics, "ssdtp_fleet_drives") {
		t.Error("metrics dump missing tier-level fleet gauges")
	}
	if !strings.Contains(e1a.metrics, "ssdtp_fleet_tenant_t0_blast_radius_ppm") {
		t.Error("metrics dump missing per-tenant blast-radius gauges")
	}
	if !strings.Contains(e1a.trace, `"name":"fleet.write"`) {
		t.Error("trace contains no tenant-level fleet request spans")
	}
	if strings.Count(e1a.timeline, "\n") < 2 {
		t.Error("fleet timeline export has no sample rows")
	}
	if e1a.telemetry == "" {
		t.Error("fleet telemetry export has no log-page rows")
	}
	if e1a != e1b {
		t.Error("two serial same-seed fleet runs produced different observability exports")
	}
	if e8 != e1a {
		t.Error("8-worker fleet observability exports differ from serial")
	}
}

// TestFleetFullScaleDeterministic is the acceptance run: the 256-drive
// 4-tenant tier completes at full scale and renders byte-identically for
// any worker count, with every tenant reporting tail percentiles and a
// blast-radius figure.
func TestFleetFullScaleDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("256-drive full-scale run")
	}
	var serial, wide string
	withPool(&runner.Pool{Workers: 1}, func() { serial = FleetTail(Full, 42).Table() })
	withPool(&runner.Pool{Workers: 8}, func() { wide = FleetTail(Full, 42).Table() })
	if serial != wide {
		t.Fatalf("full-scale fleet table differs across worker counts:\n%s\n--- vs ---\n%s", serial, wide)
	}
	if !strings.Contains(serial, "256") || !strings.Contains(serial, "p99.9(µs)") {
		t.Errorf("full-scale table missing expected fields:\n%s", serial)
	}
}

// Cloned heterogeneous fleets must be indistinguishable from fleets whose
// drives are preconditioned from scratch: the whole rendered table, covering
// every model and fill level in the fleet mix, is byte-identical with the
// snapshot cache on and off. With the cache on the clones must also be
// genuinely copy-on-write: cloning is free (zero chunk copies until traffic
// arrives), and drives no tenant ever touches never devolve into full
// copies — the only chunks they re-materialize come from their own
// background work (idle GC, scrub), a small fraction of a drive image.
func TestFleetSnapshotCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds every drive image from scratch")
	}
	run := func(cache bool) FleetResult {
		SetSnapshotCache(cache)
		defer SetSnapshotCache(true)
		return FleetTail(Quick, 42)
	}
	off := run(false).Table()
	res := run(true)
	on := res.Table()
	if on != off {
		t.Errorf("fleet table differs with snapshot cache on:\n--- off ---\n%s--- on ---\n%s", off, on)
	}

	// The hash policy leaves part of the tier with no tenants; those drives
	// must stay shared-image-backed for the whole run. A fully-copied drive
	// is roughly ImageChunks/4 chunks (four distinct images back the fleet
	// mix), so assert every untouched drive re-copied strictly less than
	// one image's worth — measured ~6 chunks per drive against ~25.
	sawUntouched := false
	for _, m := range res.Mem {
		rep := m.Report
		if rep.UntouchedDrives == 0 {
			continue
		}
		sawUntouched = true
		if rep.UntouchedCow*4 >= int64(rep.UntouchedDrives)*rep.ImageChunks {
			t.Errorf("%s: untouched drives copied %d chunks across %d drives — a full image (%d/4 chunks) each means sharing broke",
				m.Policy, rep.UntouchedCow, rep.UntouchedDrives, rep.ImageChunks)
		}
	}
	if !sawUntouched {
		t.Error("no policy left untouched drives; the untouched-drive COW assertion never ran")
	}
}

// Cloning itself costs nothing: a tier restored from cached images, with
// volumes attached but no traffic run, shares every chunk — zero COW copies
// anywhere (untouched drives included) and zero private bytes.
func TestFleetCloneSharesEverything(t *testing.T) {
	drives := 16
	seed := int64(42)
	pl := fleetPolicies(drives, seed)[1] // hash: leaves untouched drives
	host := sim.NewEngine()
	devs := make([]*ssd.Device, drives)
	for i := range devs {
		cfg := fleetDriveConfig(i%2, seed)
		dtr := obs.NewTracer(fmt.Sprintf("drive%03d", i))
		dtr.SetRecordCap(1)
		devs[i] = prefilledDeviceFrac(cfg, dtr, fleetFillLevels[(i/2)%2])
	}
	f := fleet.New(host, devs, fleetStripe)
	groups := make([][]int, fleetTenants)
	for tn := range groups {
		groups[tn] = pl.Group(tn)
	}
	volBytes := fleet.VolumeBytes(devs[0].Size(), groups, drives, fleetStripe)
	for tn := 0; tn < fleetTenants; tn++ {
		if _, err := f.AddVolume(fmt.Sprintf("t%d", tn), groups[tn], volBytes); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.MemReport()
	if rep.CowCopies != 0 {
		t.Errorf("cloning a %d-drive tier performed %d chunk copies; want 0", drives, rep.CowCopies)
	}
	if rep.PrivateBytes != 0 {
		t.Errorf("freshly cloned tier holds %d private bytes; want 0 (everything shared)", rep.PrivateBytes)
	}
	if rep.UntouchedDrives == 0 {
		t.Error("hash placement left no untouched drives; probe misconfigured")
	}
	if rep.ImageBytes == 0 || rep.ImageChunks == 0 {
		t.Errorf("clone tier reports no shared image (%+v)", rep)
	}
}
