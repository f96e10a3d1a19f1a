package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

// TestFleetMaxScaleSmoke is the tentpole's acceptance run: a 1024-drive tier
// cloned from one prefilled image completes a short multi-tenant run, and its
// resident memory — shared image plus every drive's private dirty chunks —
// stays within the footprint of ~4 fully-copied drives. Before COW images,
// 1024 preconditioned drives meant 1024 deep copies; now the fleet costs one
// image plus what the run actually dirties. It also bounds each clone's own
// live Go heap, which MemReport's chunk figures leave out.
func TestFleetMaxScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-drive tier")
	}
	const drives = 1024

	// One prefilled, drained drive image for the whole homogeneous tier.
	// Full mqsim-base geometry, not the shrunken testConfig: the acceptance
	// bound compares against a real drive image (~1.4 MiB of mapping and
	// chip metadata), the same shape `ssdfio -fleet 1024 -prefill` clones.
	// Every drive — touched or not — dirties ~1 KiB when its idle GC
	// performs one background erase (two block-metadata chunk copies), so
	// the shrunken geometry would make that constant per-drive floor look
	// like 4 full drives on its own.
	cfg := ssd.MQSimBase()
	btr := obs.NewTracer("")
	btr.Suspend()
	b := cfg
	b.Trace = btr
	builder := ssd.NewDevice(sim.NewEngine(), b)
	fill := builder.Size() * 85 / 100 / 65536 * 65536
	workload.Run(builder, workload.Spec{
		Name: "prefill", Pattern: workload.Sequential, RequestBytes: 65536, Length: fill,
	}, workload.Options{MaxRequests: fill / 65536})
	done := false
	if err := builder.FlushAsync(func() { done = true }); err != nil {
		t.Fatal(err)
	}
	builder.Engine().RunWhile(func() bool { return !done })
	img := builder.Snapshot()
	fullDrive := builder.MemStats()
	fullBytes := fullDrive.OwnedBytes + fullDrive.SharedBytes

	host := sim.NewEngine()
	devs := make([]*ssd.Device, drives)
	heap0 := liveHeap()
	for i := range devs {
		c := cfg
		dtr := obs.NewTracer(fmt.Sprintf("drive%04d", i))
		dtr.SetRecordCap(1)
		c.Trace = dtr
		dev := ssd.NewDevice(sim.NewEngine(), c)
		dev.Restore(img)
		devs[i] = dev
	}
	perDrive := (liveHeap() - heap0) / drives
	t.Logf("live heap per cloned drive = %d bytes", perDrive)
	// A clone's Go heap beyond the shared image — its device, FTL, chips,
	// tracer and chunk tables — must stay within cloneHeapBudget. Chunk
	// pointers of 8 bytes, a pointer-free 8-byte cache index and no random
	// source (mqsim-base's greedy collector never draws) put an mqsim-base
	// clone at about 41 KiB; with a seeded source it was 46 KiB, and with
	// 24-byte chunk headers and a 16-byte index 75 KiB. The race
	// detector's shadow state would count in the heap, so the check runs
	// without it.
	if !raceEnabled && perDrive > cloneHeapBudget {
		t.Errorf("live heap per cloned drive = %d bytes, budget %d", perDrive, cloneHeapBudget)
	}
	f := New(host, devs, 256*1024)

	// A handful of tenants on narrow groups: most of the tier stays
	// untouched, which is exactly the fleet shape COW images exist for.
	const tenants = 8
	pl := ConsistentHash(drives, 8, 42)
	targets := make([]workload.Target, tenants)
	specs := make([]workload.Spec, tenants)
	for tn := 0; tn < tenants; tn++ {
		v, err := f.AddVolume(fmt.Sprintf("t%d", tn), pl.Group(tn), 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		targets[tn] = v
		specs[tn] = workload.Spec{
			Name: v.Name(), Pattern: workload.Uniform, RequestBytes: 4096,
			QueueDepth: 2, Seed: int64(100 + tn),
		}
	}
	workload.RunMulti(targets, specs, workload.Options{MaxRequests: 400})

	rep := f.MemReport()
	t.Logf("full drive = %d bytes; %s", fullBytes, rep)
	if rep.Drives != drives {
		t.Fatalf("MemReport covers %d drives, want %d", rep.Drives, drives)
	}
	// The acceptance bound: the whole tier within ~4 fully-copied drives.
	if budget := 4 * fullBytes; rep.ResidentBytes > budget {
		t.Errorf("1024-drive tier resident in %d bytes; budget 4 full drives = %d", rep.ResidentBytes, budget)
	}
	if rep.UntouchedDrives < drives/2 {
		t.Errorf("only %d untouched drives; the narrow-placement smoke expects most of the tier idle", rep.UntouchedDrives)
	}
}

// cloneHeapBudget bounds the live Go heap one mqsim-base clone adds to a
// tier cloned from a shared image.
const cloneHeapBudget = 50 << 10

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
