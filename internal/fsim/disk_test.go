package fsim

import (
	"testing"

	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

// zaDisk is package-level so the measured batches capture nothing and
// compile to static funcvals (a capturing closure would itself allocate).
var zaDisk struct {
	disk *SSDDisk
	off  int64
	span int64
}

// zaBatchLen is how many I/Os one measured run makes: AllocsPerRun rounds
// per run, so a path that allocates on only some I/Os (a garbage-collection
// victim every few dozen writes) shows up only when a run covers many.
const zaBatchLen = 2000

func zaNext() int64 {
	off := zaDisk.off
	zaDisk.off += BlockSize
	if zaDisk.off >= zaDisk.span {
		zaDisk.off = 0
	}
	return off
}

func zaWriteBatch() {
	for i := 0; i < zaBatchLen; i++ {
		zaDisk.disk.Write(zaNext(), BlockSize)
	}
}

func zaReadBatch() {
	for i := 0; i < zaBatchLen; i++ {
		zaDisk.disk.Read(zaNext(), BlockSize)
	}
}

// A synchronous SSDDisk I/O is a blocking ssd.Device call, which reuses the
// device's completion flag and its two prebuilt funcs, so once the device's
// own pools are warm a write or a read allocates nothing: the file systems
// issue one per block run, and every aged Figure 1 image is built from
// hundreds of thousands of them. The device is warmed as the ssd package's
// own allocation tests warm it, by cycling half its capacity three times so
// GC and every pool reach steady state. CI runs this test explicitly.
func TestSSDDiskZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	cfg := ssd.MQSimBase()
	cfg.FTL.Seed = 1
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	zaDisk.disk = NewSSDDisk(dev)
	zaDisk.off = 0
	zaDisk.span = dev.Size() / 2 / BlockSize * BlockSize
	for i := int64(0); i < 3*zaDisk.span/BlockSize; i++ {
		zaDisk.disk.Write(zaNext(), BlockSize)
	}
	gc := dev.FTL().Counters().GCRuns
	if n := testing.AllocsPerRun(1, zaWriteBatch); n != 0 {
		t.Errorf("%.0f allocations in %d steady-state SSDDisk writes, want 0", n, zaBatchLen)
	}
	if dev.FTL().Counters().GCRuns == gc {
		t.Error("no garbage collection ran during the measured writes")
	}
	if n := testing.AllocsPerRun(1, zaReadBatch); n != 0 {
		t.Errorf("%.0f allocations in %d steady-state SSDDisk reads, want 0", n, zaBatchLen)
	}
}
