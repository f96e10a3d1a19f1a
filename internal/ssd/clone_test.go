package ssd

import (
	"math/rand"
	"testing"

	"ssdtp/internal/sim"
)

// TestClonePaysForWhatItTouches pins the per-drive cost of a fleet clone:
// restored from a prefilled image, one 4 KiB write at a random LBA and the
// drain after it copy only the few small chunks they touch (one l2p chunk,
// the p2l chunk of the new location, block counters and program cursors),
// not a 32 KiB slab of mapping table per touched chunk. Retiring the old
// location writes no p2l entry, so its chunk stays shared.
func TestClonePaysForWhatItTouches(t *testing.T) {
	const bound = 6 << 10
	cfg := MQSimBase()
	cfg.FTL.Seed = 1
	src := NewDevice(sim.NewEngine(), cfg)
	const req = 64 << 10
	for off := int64(0); off < src.Size()*85/100/req*req; off += req {
		if err := src.Write(off, nil, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	img := src.Snapshot()

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		dev := NewDevice(sim.NewEngine(), cfg)
		dev.Restore(img)
		if st := dev.MemStats(); st.OwnedBytes != 0 {
			t.Fatalf("fresh clone owns %d bytes, want 0", st.OwnedBytes)
		}
		off := rng.Int63n(dev.Size()/4096) * 4096
		if err := dev.Write(off, nil, 4096); err != nil {
			t.Fatal(err)
		}
		if err := dev.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := dev.MemStats(); st.OwnedBytes > bound {
			t.Errorf("clone wrote 4 KiB at %d and owns %d bytes in %d chunks, want ≤ %d", off, st.OwnedBytes, st.OwnedChunks, bound)
		}
	}
}
