package fsim

import (
	"testing"

	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

// auditExtFS checks ExtFS's allocation bookkeeping: a bitmap bit is set
// exactly when its block lies in one file extent or is a directory block
// (no block is in two), freeCount is the data blocks less the set bits, and
// each file is in the file map under its own name. These are the facts
// ExtFS's Materialize rebuilds the bitmap and the file map from.
func auditExtFS(t *testing.T, what string, fs *ExtFS) {
	t.Helper()
	if int64(len(fs.bitmap)) != fs.dataBlocks {
		t.Fatalf("%s: bitmap covers %d blocks, data zone %d", what, len(fs.bitmap), fs.dataBlocks)
	}
	uses := make([]uint8, fs.dataBlocks)
	use := func(b int64, by string) {
		if b < 0 || b >= fs.dataBlocks {
			t.Fatalf("%s: %s holds block %d outside the data zone", what, by, b)
		}
		if uses[b]++; uses[b] > 1 {
			t.Fatalf("%s: block %d allocated twice, the second time to %s", what, b, by)
		}
	}
	for dir, b := range fs.dirBlocks {
		use(b, "directory "+dir)
	}
	for name, ino := range fs.files {
		if ino.name != name {
			t.Fatalf("%s: file %q holds inode %q", what, name, ino.name)
		}
		var n int64
		for _, e := range ino.extents {
			if e.count <= 0 {
				t.Fatalf("%s: %q has an empty extent at %d", what, name, e.start)
			}
			for b := e.start; b < e.start+e.count; b++ {
				use(b, name)
			}
			n += e.count
		}
		if n != blocks(ino.size) {
			t.Fatalf("%s: %q has %d bytes in %d blocks", what, name, ino.size, n)
		}
	}
	var set int64
	for b, on := range fs.bitmap {
		if on != (uses[b] == 1) {
			t.Fatalf("%s: block %d bitmap %v, allocated %d times", what, b, on, uses[b])
		}
		if on {
			set++
		}
	}
	if fs.freeCount != fs.dataBlocks-set {
		t.Fatalf("%s: freeCount %d, %d data blocks with %d set", what, fs.freeCount, fs.dataBlocks, set)
	}
}

// TestExtFSAuditAfterAgingAndClone audits the allocation bookkeeping after
// ageing and after the ways an aged image is reused: on an SSD, both the
// directly aged file system and a clone materialized onto a restored device,
// and each again after a fileserver run on it; on a MemDisk, every ageing
// profile, a clone and the source after more traffic.
func TestExtFSAuditAfterAgingAndClone(t *testing.T) {
	t.Run("ssd", func(t *testing.T) {
		cfg := ssd.S64()
		cfg.Geometry.BlocksPerPlane = 24
		dev := ssd.NewDevice(sim.NewEngine(), cfg)
		disk := &trimCounter{Disk: NewSSDDisk(dev)}
		fs := NewExtFS(disk)
		Age(fs, AgeA, 5)
		if disk.trims == 0 {
			t.Fatal("ageing never deleted a file")
		}
		auditExtFS(t, "aged", fs)
		img, state := fs.Snapshot(), dev.Snapshot()

		clone := ssd.NewDevice(sim.NewEngine(), cfg)
		clone.Restore(state)
		cfs := img.Materialize(NewSSDDisk(clone)).(*ExtFS)
		auditExtFS(t, "materialized", cfs)

		Fileserver(fs, dev.Engine(), 300, 2)
		auditExtFS(t, "aged after fileserver", fs)
		Fileserver(cfs, clone.Engine(), 300, 2)
		auditExtFS(t, "materialized after fileserver", cfs)
	})
	for _, prof := range []AgingProfile{AgeU, AgeA, AgeM} {
		t.Run("memdisk-"+prof.String(), func(t *testing.T) {
			const diskCap = 256 << 20
			src := &MemDisk{Cap: diskCap}
			fs := NewExtFS(src)
			Age(fs, prof, 7)
			if prof != AgeU && src.Trims == 0 {
				t.Fatal("ageing never deleted a file")
			}
			auditExtFS(t, "aged", fs)
			img := fs.Snapshot()
			d := &MemDisk{Cap: diskCap}
			cfs := img.Materialize(d).(*ExtFS)
			auditExtFS(t, "materialized", cfs)
			driveAfterClone(t, cfs, d)
			auditExtFS(t, "materialized after traffic", cfs)
			driveAfterClone(t, fs, src)
			auditExtFS(t, "source after traffic", fs)
		})
	}
}
