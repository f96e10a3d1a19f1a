package fsim

import (
	"testing"

	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

// auditLogFS checks LogFS's block bookkeeping: the owner table and the
// files' block maps name the same live blocks (owner slot b holds (ino, fb)
// exactly when ino.blocks[fb] == b), every owner refers to a live inode in
// its own slot, and each segment's live count is the number of owned slots
// in it. It also checks that every live inode is in the file map or, with
// its directory flag set and no blocks, in the directory map, under its own
// name. These are the facts LogFS's Materialize rebuilds its tables from.
func auditLogFS(t *testing.T, what string, fs *LogFS) {
	t.Helper()
	owned := make([]int32, fs.segCount)
	for b, own := range fs.owner {
		if own.ino == 0 {
			continue
		}
		owned[int64(b)/SegmentBlocks]++
		if int(own.ino) >= len(fs.inodes) || fs.inodes[own.ino] == nil {
			t.Fatalf("%s: block %d owned by free inode slot %d", what, b, own.ino)
		}
		ino := fs.inodes[own.ino]
		if ino.idx != own.ino {
			t.Fatalf("%s: inode %q in slot %d records idx %d", what, ino.name, own.ino, ino.idx)
		}
		if int(own.fb) >= len(ino.blocks) || ino.blocks[own.fb] != int32(b) {
			t.Fatalf("%s: block %d owned by %q file block %d, which maps elsewhere", what, b, ino.name, own.fb)
		}
	}
	for s, n := range owned {
		if n != fs.liveCount[s] {
			t.Fatalf("%s: segment %d has %d owned blocks, liveCount %d", what, s, n, fs.liveCount[s])
		}
	}
	live := 0
	for _, ino := range fs.inodes {
		if ino != nil {
			live++
		}
	}
	if n := len(fs.files) + len(fs.dirNodes); n != live {
		t.Fatalf("%s: %d live inodes, %d files and directories", what, live, n)
	}
	for name, ino := range fs.dirNodes {
		if ino.idx == 0 || fs.inodes[ino.idx] != ino {
			t.Fatalf("%s: directory %q is not in its inode slot %d", what, name, ino.idx)
		}
		if !ino.dir || ino.name != name || len(ino.blocks) != 0 {
			t.Fatalf("%s: directory %q holds inode %q (dir %v, %d blocks)", what, name, ino.name, ino.dir, len(ino.blocks))
		}
	}
	for name, ino := range fs.files {
		if ino.idx == 0 || fs.inodes[ino.idx] != ino {
			t.Fatalf("%s: file %q is not in its inode slot %d", what, name, ino.idx)
		}
		if ino.dir || ino.name != name {
			t.Fatalf("%s: file %q holds inode %q (dir %v)", what, name, ino.name, ino.dir)
		}
		for fb, b := range ino.blocks {
			if b < 0 {
				continue
			}
			if own := fs.owner[b]; own.ino != ino.idx || int(own.fb) != fb {
				t.Fatalf("%s: %q file block %d maps to block %d, owned by (%d, %d)", what, name, fb, b, own.ino, own.fb)
			}
		}
	}
}

// trimCounter counts the trims passing through to a disk: LogFS trims only
// a segment its cleaner has emptied.
type trimCounter struct {
	Disk
	trims int
}

func (d *trimCounter) Trim(off, n int64) {
	d.trims++
	d.Disk.Trim(off, n)
}

// TestLogFSAuditAfterAgingAndClone audits the bookkeeping after ageing with
// the cleaner running and after the ways an aged image is reused: on an
// SSD, both the directly aged file system (the uncached build) and a clone
// materialized onto a restored device (the preconditioning cache's path),
// and each again after a benchmark runs on it; on a MemDisk, every ageing
// profile, a clone and the source after more traffic.
func TestLogFSAuditAfterAgingAndClone(t *testing.T) {
	t.Run("ssd", func(t *testing.T) {
		cfg := ssd.S64()
		cfg.Geometry.BlocksPerPlane = 24
		dev := ssd.NewDevice(sim.NewEngine(), cfg)
		disk := &trimCounter{Disk: NewSSDDisk(dev)}
		fs := NewLogFS(disk)
		Age(fs, AgeA, 5)
		if disk.trims == 0 {
			t.Fatal("ageing never ran the cleaner")
		}
		auditLogFS(t, "aged", fs)
		img, state := fs.Snapshot(), dev.Snapshot()

		clone := ssd.NewDevice(sim.NewEngine(), cfg)
		clone.Restore(state)
		cfs := img.Materialize(NewSSDDisk(clone)).(*LogFS)
		auditLogFS(t, "materialized", cfs)

		Fileserver(fs, dev.Engine(), 300, 2)
		auditLogFS(t, "aged after fileserver", fs)
		Fileserver(cfs, clone.Engine(), 300, 2)
		auditLogFS(t, "materialized after fileserver", cfs)
	})
	for _, prof := range []AgingProfile{AgeU, AgeA, AgeM} {
		t.Run("memdisk-"+prof.String(), func(t *testing.T) {
			const diskCap = 256 << 20
			src := &MemDisk{Cap: diskCap}
			fs := NewLogFS(src)
			Age(fs, prof, 7)
			if prof != AgeU && src.Trims == 0 {
				t.Fatal("ageing never ran the cleaner")
			}
			auditLogFS(t, "aged", fs)
			img := fs.Snapshot()
			d := &MemDisk{Cap: diskCap}
			cfs := img.Materialize(d).(*LogFS)
			auditLogFS(t, "materialized", cfs)
			driveAfterClone(t, cfs, d)
			auditLogFS(t, "materialized after traffic", cfs)
			driveAfterClone(t, fs, src)
			auditLogFS(t, "source after traffic", fs)
		})
	}
}
