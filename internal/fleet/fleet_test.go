package fleet

import (
	"errors"
	"fmt"
	"testing"

	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

// testConfig is a deliberately small drive so fleet tests and their GC
// activity run in milliseconds. Shrinking BlocksPerPlane squeezes the
// per-PU over-provisioning slack, so OP is raised to keep it comfortably
// above the GC reserve — without that, a near-full drive has nothing
// reclaimable and wedges.
func testConfig(name string) ssd.Config {
	cfg := ssd.MQSimBase()
	cfg.Name = name
	cfg.Channels = 2
	cfg.Geometry.BlocksPerPlane = 8
	cfg.FTL.OverProvision = 0.25
	return cfg
}

// testFleet builds n fresh traced drives behind a host engine.
func testFleet(t *testing.T, n int, stripe int64) *Fleet {
	t.Helper()
	host := sim.NewEngine()
	devs := make([]*ssd.Device, n)
	for i := range devs {
		cfg := testConfig("test-drive")
		tr := obs.NewTracer(fmt.Sprintf("drive%d", i))
		tr.SetRecordCap(1)
		cfg.Trace = tr
		devs[i] = ssd.NewDevice(sim.NewEngine(), cfg)
	}
	return New(host, devs, stripe)
}

func TestPlacementGroups(t *testing.T) {
	p := StripeAll(8)
	g0, g1 := p.Group(0), p.Group(1)
	if len(g0) != 8 || len(g1) != 8 {
		t.Fatalf("stripe groups = %d, %d drives", len(g0), len(g1))
	}
	if g0[0] != 0 || g1[0] != 1 {
		t.Errorf("rotation: g0[0]=%d g1[0]=%d", g0[0], g1[0])
	}

	ch := ConsistentHash(16, 4, 42)
	for tenant := 0; tenant < 4; tenant++ {
		g := ch.Group(tenant)
		if len(g) != 4 {
			t.Fatalf("tenant %d group size %d", tenant, len(g))
		}
		seen := map[int]bool{}
		for _, d := range g {
			if d < 0 || d >= 16 || seen[d] {
				t.Fatalf("tenant %d group %v invalid", tenant, g)
			}
			seen[d] = true
		}
		// Pure function: same parameters, same group.
		g2 := ConsistentHash(16, 4, 42).Group(tenant)
		for i := range g {
			if g[i] != g2[i] {
				t.Fatalf("tenant %d group not deterministic: %v vs %v", tenant, g, g2)
			}
		}
	}
}

// testPiece is one drive-local piece of a volume request.
type testPiece struct {
	di     int32
	off, n int64
}

// pieces walks [off, off+length) the way submit does.
func pieces(v *Volume, off, length int64) []testPiece {
	var ps []testPiece
	for length > 0 {
		di, local, n := v.piece(off, length)
		ps = append(ps, testPiece{di, local, n})
		off, length = off+n, length-n
	}
	return ps
}

func TestVolumeExtentMapping(t *testing.T) {
	f := testFleet(t, 4, 256*1024)
	v, err := f.AddVolume("a", []int{0, 1, 2, 3}, 4*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 4*1024*1024 {
		t.Fatalf("size = %d", v.Size())
	}
	// Extent e lives on drive e%4 at local offset (e/4)*stripe.
	frags := pieces(v, 0, 3*256*1024)
	if len(frags) != 3 {
		t.Fatalf("frags = %d", len(frags))
	}
	for i, fr := range frags {
		if int(fr.di) != i || fr.off != 0 || fr.n != 256*1024 {
			t.Errorf("frag %d = %+v", i, fr)
		}
	}
	// Mid-extent request stays on one drive with the right local offset.
	frags = pieces(v, 256*1024+4096, 8192)
	if len(frags) != 1 || frags[0].di != 1 || frags[0].off != 4096 || frags[0].n != 8192 {
		t.Errorf("mid-extent frag = %+v", frags[0])
	}
}

func TestVolumeCapacityAndBounds(t *testing.T) {
	f := testFleet(t, 2, 256*1024)
	if _, err := f.AddVolume("big", []int{0, 1}, 1<<40); err == nil {
		t.Error("oversized volume accepted")
	}
	v, err := f.AddVolume("a", []int{0, 1}, 1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.WriteAsync(v.Size(), nil, 4096, nil); err == nil {
		t.Error("out-of-range write accepted")
	}
	if err := v.WriteAsync(123, nil, 4096, nil); err == nil {
		t.Error("unaligned write accepted")
	}
	if err := v.ReadAsync(-4096, nil, 4096, nil); err == nil {
		t.Error("negative-offset read accepted")
	}
}

// TestAddVolumeDuplicateDrives: a drive listed twice in a group takes the
// extents of both positions, validation sums them before committing, and
// the volume's flush fan-out lists each drive once, in ascending order.
func TestAddVolumeDuplicateDrives(t *testing.T) {
	const stripe = 256 * 1024
	f := testFleet(t, 3, stripe)
	v, err := f.AddVolume("a", []int{2, 0, 2}, 5*stripe) // extents on 2, 0, 2, 2, 0
	if err != nil {
		t.Fatal(err)
	}
	wantDrive := []int32{2, 0, 2, 2, 0}
	wantBase := []int64{0, 0, stripe, 2 * stripe, stripe}
	for e := range wantDrive {
		di, local, _ := v.piece(int64(e)*stripe, stripe)
		if di != wantDrive[e] || local != wantBase[e] {
			t.Errorf("extent %d on drive %d at %d, want drive %d at %d",
				e, di, local, wantDrive[e], wantBase[e])
		}
	}
	if fmt.Sprint(v.shared) != "[0 2]" || f.drives[0].tenants != 1 || f.drives[1].tenants != 0 || f.drives[2].tenants != 1 {
		t.Errorf("shared %v, tenants %d/%d/%d; want [0 2] and 1/0/1",
			v.shared, f.drives[0].tenants, f.drives[1].tenants, f.drives[2].tenants)
	}
	// Of every 3 extents, drive 2 takes two and drive 0 one: a volume that
	// fits drive 0 but not drive 2 must fail and change nothing.
	m := (f.drives[2].dev.Size()-f.drives[2].cursor)/stripe/2 + 1
	if _, err := f.AddVolume("b", []int{2, 0, 2}, 3*m*stripe); err == nil {
		t.Fatal("volume overfilling the duplicated drive accepted")
	}
	if f.drives[0].cursor != 2*stripe || f.drives[2].cursor != 3*stripe {
		t.Errorf("failed AddVolume moved cursors to %d/%d", f.drives[0].cursor, f.drives[2].cursor)
	}
}

// TestSingleDriveFleetTransparent pins the co-simulation contract: a 1-drive
// fleet adds no modeled latency and preserves the drive's event interleaving,
// so a workload through the volume reproduces the exact per-request latencies
// of the same workload directly against an identical drive.
func TestSingleDriveFleetTransparent(t *testing.T) {
	spec := workload.Spec{
		Name: "w", Pattern: workload.Uniform, RequestBytes: 4096,
		QueueDepth: 4, Seed: 7, Length: 4 * 1024 * 1024,
	}
	opt := workload.Options{MaxRequests: 400}

	direct := ssd.NewDevice(sim.NewEngine(), testConfig("test-drive"))
	want := workload.Run(direct, spec, opt)

	f := testFleet(t, 1, 256*1024)
	v, err := f.AddVolume("a", []int{0}, 8*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	got := workload.RunMulti([]workload.Target{v}, []workload.Spec{spec}, opt)[0]

	if got.Requests != want.Requests {
		t.Fatalf("requests: fleet %d, direct %d", got.Requests, want.Requests)
	}
	gl, wl := got.Latency.Snapshot(), want.Latency.Snapshot()
	for i := range wl {
		if gl[i] != wl[i] {
			t.Fatalf("latency %d: fleet %d != direct %d", i, gl[i], wl[i])
		}
	}
}

func TestMultiTenantFleetRun(t *testing.T) {
	f := testFleet(t, 4, 256*1024)
	pl := StripeAll(4)
	var targets []workload.Target
	var specs []workload.Spec
	var vols []*Volume
	for tenant := 0; tenant < 2; tenant++ {
		v, err := f.AddVolume(fmt.Sprintf("t%d", tenant), pl.Group(tenant), 16*1024*1024)
		if err != nil {
			t.Fatal(err)
		}
		vols = append(vols, v)
		targets = append(targets, v)
		specs = append(specs, workload.Spec{
			Name: v.Name(), Pattern: workload.Uniform, RequestBytes: 16384,
			QueueDepth: 4, Seed: int64(tenant + 1),
		})
	}
	if got := f.SharedDrives(); got != 4 {
		t.Fatalf("shared drives = %d, want 4", got)
	}
	results := workload.RunMulti(targets, specs, workload.Options{MaxRequests: 300})
	for i, res := range results {
		if res.Requests != 300 {
			t.Fatalf("tenant %d requests = %d", i, res.Requests)
		}
		r := vols[i].Report()
		if r.Requests != 300 {
			t.Errorf("tenant %d report requests = %d", i, r.Requests)
		}
		if r.Drives != 4 || r.SharedDrives != 4 {
			t.Errorf("tenant %d drives = %d shared = %d", i, r.Drives, r.SharedDrives)
		}
		if r.P50 <= 0 || r.P99 < r.P50 || r.P999 < r.P99 {
			t.Errorf("tenant %d percentiles out of order: %+v", i, r)
		}
		if r.BlastPPM < 0 || r.BlastPPM > r.TailGCSharePPM || r.TailGCSharePPM > 1_000_000 {
			t.Errorf("tenant %d blast accounting inconsistent: %+v", i, r)
		}
	}
}

// TestFleetRunDeterministic pins within-process reproducibility of the
// co-simulation: two identically-built fleets under identical traffic report
// identical per-tenant summaries.
func TestFleetRunDeterministic(t *testing.T) {
	run := func() [2]TenantReport {
		f := testFleet(t, 3, 256*1024)
		ch := ConsistentHash(3, 2, 9)
		var targets []workload.Target
		var specs []workload.Spec
		var vols []*Volume
		for tenant := 0; tenant < 2; tenant++ {
			v, err := f.AddVolume(fmt.Sprintf("t%d", tenant), ch.Group(tenant), 8*1024*1024)
			if err != nil {
				t.Fatal(err)
			}
			vols = append(vols, v)
			targets = append(targets, v)
			specs = append(specs, workload.Spec{
				Name: v.Name(), Pattern: workload.Hotspot, RequestBytes: 4096,
				QueueDepth: 2, Seed: int64(100 + tenant), ReadFrac: 0.3,
			})
		}
		workload.RunMulti(targets, specs, workload.Options{MaxRequests: 250})
		return [2]TenantReport{vols[0].Report(), vols[1].Report()}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical fleet runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFleetGCAttribution drives a small, nearly-full fleet hard enough to
// force garbage collection and checks the interference shows up in the
// blast-radius accounting: gc_stall charged to tenants on shared drives.
func TestFleetGCAttribution(t *testing.T) {
	f := testFleet(t, 2, 256*1024)
	pl := StripeAll(2)
	var targets []workload.Target
	var specs []workload.Spec
	var vols []*Volume
	// Two tenants split 85% of the tier — the fill level preconditioning
	// uses, leaving GC reclaimable space; writing ~2x each volume's span
	// forces steady-state collection on both (shared) drives.
	perVol := f.drives[0].dev.Size() * 85 / 100 // half of each drive, times two drives
	perVol = perVol / (256 * 1024) * (256 * 1024)
	for tenant := 0; tenant < 2; tenant++ {
		v, err := f.AddVolume(fmt.Sprintf("t%d", tenant), pl.Group(tenant), perVol)
		if err != nil {
			t.Fatal(err)
		}
		vols = append(vols, v)
		targets = append(targets, v)
		specs = append(specs, workload.Spec{
			Name: v.Name(), Pattern: workload.Sequential, RequestBytes: 64 * 1024,
			QueueDepth: 8, Seed: int64(tenant + 1),
		})
	}
	reqs := 2 * perVol / (64 * 1024)
	workload.RunMulti(targets, specs, workload.Options{MaxRequests: reqs})
	var gcHit bool
	for _, v := range vols {
		r := v.Report()
		if r.Requests != reqs {
			t.Fatalf("tenant %s requests = %d, want %d", r.Tenant, r.Requests, reqs)
		}
		if r.TailGCSharePPM > 0 {
			gcHit = true
			// Every drive is shared, so all GC interference is blast radius.
			if r.BlastPPM != r.TailGCSharePPM {
				t.Errorf("tenant %s: blast %d ppm != gc share %d ppm on all-shared drives",
					r.Tenant, r.BlastPPM, r.TailGCSharePPM)
			}
		}
	}
	if !gcHit {
		t.Error("no tenant saw gc_stall in its tail after overwriting the tier twice")
	}
}

func TestFleetPublishMetrics(t *testing.T) {
	f := testFleet(t, 2, 256*1024)
	tr := obs.NewTracer("cell")
	f.BindObs(tr)
	v, err := f.AddVolume("a", []int{0, 1}, 2*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	workload.RunMulti([]workload.Target{v}, []workload.Spec{{
		Name: "a", Pattern: workload.Sequential, RequestBytes: 16384, Seed: 1,
	}}, workload.Options{MaxRequests: 50})
	f.PublishMetrics(tr)
	m := tr.Metrics()
	if m.Get("ssdtp_fleet_drives") != 2 || m.Get("ssdtp_fleet_tenants") != 1 {
		t.Errorf("fleet gauges: drives=%d tenants=%d",
			m.Get("ssdtp_fleet_drives"), m.Get("ssdtp_fleet_tenants"))
	}
	if m.Get("ssdtp_fleet_host_bytes_written_total") != 50*16384 {
		t.Errorf("host bytes = %d", m.Get("ssdtp_fleet_host_bytes_written_total"))
	}
	if m.Get("ssdtp_fleet_tenant_a_requests_total") != 50 {
		t.Errorf("tenant requests = %d", m.Get("ssdtp_fleet_tenant_a_requests_total"))
	}
	if tr.EventsFired() == 0 {
		t.Error("drive engine events not credited to the cell tracer")
	}
}

// TestFleetAttributionInvariant pins the sim.Resource acquire-wait
// accounting through the fleet pump: on a 3-drive fleet under GC-heavy
// sequential overwrites, the phase charges of every sub-request attribution
// row a drive emits sum exactly to its end-to-end latency.
func TestFleetAttributionInvariant(t *testing.T) {
	f := testFleet(t, 3, 256*1024)
	// Interpose on each drive's row sink: verify the invariant, then run the
	// fleet's own hand-off so blast-radius accounting still works.
	var rows int64
	for _, d := range f.drives {
		d := d
		d.dev.Tracer().Prof().SetRowSink(func(r obs.AttrRow) {
			rows++
			var sum sim.Time
			for _, p := range r.Phases {
				sum += p
			}
			if sum != r.Total {
				t.Fatalf("attribution row phases sum %d != total %d (%+v)", sum, r.Total, r)
			}
			d.lastRow = r
			d.hasRow = true
		})
	}

	perVol := f.drives[0].dev.Size() * 85 / 100 * 3 / 2
	perVol = perVol / (256 * 1024) * (256 * 1024)
	var targets []workload.Target
	var specs []workload.Spec
	for tenant := 0; tenant < 2; tenant++ {
		v, err := f.AddVolume(fmt.Sprintf("t%d", tenant), StripeAll(3).Group(tenant), perVol)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, v)
		specs = append(specs, workload.Spec{
			Name: v.Name(), Pattern: workload.Sequential, RequestBytes: 64 * 1024,
			QueueDepth: 8, Seed: int64(tenant + 1),
		})
	}
	reqs := 2 * perVol / (64 * 1024)
	workload.RunMulti(targets, specs, workload.Options{MaxRequests: reqs})
	if rows == 0 {
		t.Fatal("no attribution rows observed")
	}
}

// TestFleetFlushAndTrim drives a striped write, a volume flush fan-out, a
// trim and a read through the pump, each to its completion.
func TestFleetFlushAndTrim(t *testing.T) {
	f := testFleet(t, 2, 256*1024)
	v, err := f.AddVolume("a", []int{0, 1}, 4*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	host := f.Engine()
	for _, step := range []struct {
		name   string
		submit func(cb func()) error
	}{
		{"write", func(cb func()) error { return v.WriteAsync(0, nil, 512*1024, cb) }},
		{"flush", v.FlushAsync},
		{"trim", func(cb func()) error { return v.TrimAsync(0, 256*1024, cb) }},
		{"read", func(cb func()) error { return v.ReadAsync(256*1024, nil, 256*1024, cb) }},
	} {
		done := false
		if err := step.submit(func() { done = true }); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if host.RunWhile(func() bool { return !done }) {
			t.Fatalf("%s: the host engine drained before it completed", step.name)
		}
	}
	// Two write pieces, one trim piece, one read piece; flushes are not
	// sub-requests.
	if v.subRequests != 4 {
		t.Errorf("sub-requests = %d, want 4", v.subRequests)
	}
}

// TestFleetFlushErrorKeepsPumpArmed: when a later drive of the volume
// rejects its flush, the flush already queued on an earlier drive must still
// run, so FlushAsync re-arms the pump on its error return too.
func TestFleetFlushErrorKeepsPumpArmed(t *testing.T) {
	f := testFleet(t, 2, 256*1024)
	v, err := f.AddVolume("a", []int{0, 1}, 1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	// Fill drive 1's flush backlog behind the fleet's back.
	d1 := f.drives[1]
	for d1.dev.FlushAsync(nil) == nil {
	}
	f.group.Touch(d1.idx)

	if err := v.FlushAsync(nil); !errors.Is(err, ssd.ErrFlushBacklog) {
		t.Fatalf("volume flush = %v, want ssd.ErrFlushBacklog from drive 1", err)
	}
	f.Engine().Run()
	if n := f.drives[0].dev.Engine().Pending(); n != 0 {
		t.Fatalf("drive 0 still holds %d events after the host engine drained", n)
	}
}
