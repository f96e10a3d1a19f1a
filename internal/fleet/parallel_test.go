package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

// gcFleetRun builds a 3-drive, 2-tenant fleet near the GC fill level, runs a
// mixed overwrite workload hard enough to force steady-state collection (so
// prefetch windows have real background work to fire), and returns every
// output surface the determinism contract covers: tenant reports, the cell
// tracer's four exports, and its engine metrics.
func gcFleetRun(t *testing.T, workers int) (reports [2]TenantReport, jsonl, timeline, metrics, perfetto []byte, f *Fleet) {
	t.Helper()
	f = testFleet(t, 3, 256*1024)
	f.SetParallel(workers)
	col := obs.NewCollector()
	col.SetTimeline(2 * sim.Millisecond)
	tr := col.Cell("cell")
	f.BindObs(tr)

	perVol := f.drives[0].dev.Size() * 85 / 100 * 3 / 2 // 2 tenants over 3 drives
	perVol = perVol / (256 * 1024) * (256 * 1024)
	var targets []workload.Target
	var specs []workload.Spec
	var vols []*Volume
	for tenant := 0; tenant < 2; tenant++ {
		v, err := f.AddVolume(fmt.Sprintf("t%d", tenant), StripeAll(3).Group(tenant), perVol)
		if err != nil {
			t.Fatal(err)
		}
		vols = append(vols, v)
		targets = append(targets, v)
		specs = append(specs, workload.Spec{
			Name: v.Name(), Pattern: workload.Hotspot, RequestBytes: 64 * 1024,
			QueueDepth: 4, Seed: int64(tenant + 1), ReadFrac: 0.2,
		})
	}
	reqs := 2 * perVol / (64 * 1024)
	workload.RunMulti(targets, specs, workload.Options{MaxRequests: reqs})
	f.PublishMetrics(tr)

	reports = [2]TenantReport{vols[0].Report(), vols[1].Report()}
	var bj, bt, bm, bp bytes.Buffer
	if err := tr.WriteJSONL(&bj); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteTimelineCSV(&bt); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteMetrics(&bm); err != nil {
		t.Fatal(err)
	}
	if err := tr.WritePerfetto(&bp); err != nil {
		t.Fatal(err)
	}
	return reports, bj.Bytes(), bt.Bytes(), bm.Bytes(), bp.Bytes(), f
}

// TestParallelFleetByteIdentical pins the tentpole contract: the parallel
// prefetch engine produces byte-identical output to the serial pump at every
// worker count — tenant reports, trace JSONL, timeline CSV, metrics, and
// Perfetto export.
func TestParallelFleetByteIdentical(t *testing.T) {
	sReports, sJSONL, sTimeline, sMetrics, sPerfetto, sf := gcFleetRun(t, 1)
	if sf.prefetchedBatches != 0 {
		t.Fatalf("serial run opened %d window batches", sf.prefetchedBatches)
	}
	if len(sTimeline) == 0 || len(sMetrics) == 0 {
		t.Fatal("serial run produced empty exports; test covers nothing")
	}
	for _, workers := range []int{2, 8} {
		pReports, pJSONL, pTimeline, pMetrics, pPerfetto, pf := gcFleetRun(t, workers)
		if pf.prefetchedBatches == 0 {
			t.Fatalf("workers=%d: no batches prefetched; parallel path not exercised", workers)
		}
		if pReports != sReports {
			t.Fatalf("workers=%d: tenant reports diverge:\n%+v\nvs serial\n%+v", workers, pReports, sReports)
		}
		if !bytes.Equal(pJSONL, sJSONL) {
			t.Fatalf("workers=%d: trace JSONL diverges from serial", workers)
		}
		if !bytes.Equal(pTimeline, sTimeline) {
			t.Fatalf("workers=%d: timeline CSV diverges from serial", workers)
		}
		if !bytes.Equal(pMetrics, sMetrics) {
			t.Fatalf("workers=%d: metrics diverge from serial", workers)
		}
		if !bytes.Equal(pPerfetto, sPerfetto) {
			t.Fatalf("workers=%d: Perfetto export diverges from serial", workers)
		}
	}
}

// TestParallelAttributionInvariant pins the sim.Resource acquire-wait
// accounting under the sharded engine (ISSUE 7 satellite): for every
// sub-request attribution row a drive emits during a parallel run, the phase
// charges must sum exactly to the end-to-end latency. A shard-boundary grant
// that restored the 5-tuple wrong would break the equality.
func TestParallelAttributionInvariant(t *testing.T) {
	host := sim.NewEngine()
	devs := make([]*ssd.Device, 3)
	for i := range devs {
		cfg := testConfig("test-drive")
		tr := obs.NewTracer(fmt.Sprintf("drive%d", i))
		tr.SetRecordCap(1)
		cfg.Trace = tr
		devs[i] = ssd.NewDevice(sim.NewEngine(), cfg)
	}
	f := New(host, devs, 256*1024)
	f.SetParallel(4)
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

	perVol := devs[0].Size() * 85 / 100 * 3 / 2
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
	if f.prefetchedBatches == 0 {
		t.Fatal("no batches prefetched; invariant not tested under the parallel engine")
	}
	if rows == 0 {
		t.Fatal("no attribution rows observed")
	}
}

// TestParallelFlushAndTrim covers the flush fan-out and trim paths under the
// parallel pump (their completions are outstanding-tracked too), against the
// serial run of the identical sequence.
func TestParallelFlushAndTrim(t *testing.T) {
	run := func(workers int) (sim.Time, int64) {
		f := testFleet(t, 2, 256*1024)
		f.SetParallel(workers)
		v, err := f.AddVolume("a", []int{0, 1}, 4*1024*1024)
		if err != nil {
			t.Fatal(err)
		}
		host := f.Engine()
		var done int
		step := func(fn func(cb func()) error) {
			if err := fn(func() { done++ }); err != nil {
				t.Fatal(err)
			}
			host.RunWhile(func() bool { return done == 0 })
			done = 0
		}
		step(func(cb func()) error { return v.WriteAsync(0, nil, 512*1024, cb) })
		step(func(cb func()) error { return v.FlushAsync(cb) })
		step(func(cb func()) error { return v.TrimAsync(0, 256*1024, cb) })
		step(func(cb func()) error { return v.ReadAsync(256*1024, nil, 256*1024, cb) })
		return host.Now(), v.subRequests
	}
	sNow, sSubs := run(1)
	pNow, pSubs := run(4)
	if sNow != pNow || sSubs != pSubs {
		t.Fatalf("parallel flush/trim sequence diverged: now %d vs %d, subs %d vs %d",
			pNow, sNow, pSubs, sSubs)
	}
}
