package fsim

// File-system images (DESIGN.md §8). Aging a file system is the expensive
// half of a Figure-1/Table-S7 cell; the in-memory state it produces (bitmaps,
// inode tables, log heads, segment occupancy) is deterministic given the
// profile and seed. Snapshot detaches that state from its disk as an FSImage;
// Materialize stamps a fresh deep copy onto another disk — typically a device
// restored from the matching ssd.DeviceState — so each cell pays for aging
// once instead of once per trial.

// FSImage is a detached, immutable deep copy of a file system's in-memory
// state. It holds no disk reference and can be materialized any number of
// times.
type FSImage interface {
	// Materialize binds a fresh deep copy of the image to disk and returns
	// it as a live file system. The image itself is not aliased and stays
	// valid for further materializations.
	Materialize(disk Disk) FS
}

// deepCopy clones an ExtFS without its disk. extfs state is pointer-free
// apart from the inode map, so a field-wise copy plus fresh containers
// suffices. The inode structs and their extent lists are each carved from
// one allocation.
func (fs *ExtFS) deepCopy() *ExtFS {
	cp := *fs
	cp.disk = nil
	cp.bitmap = append([]bool(nil), fs.bitmap...)
	cp.files = make(map[string]*extInode, len(fs.files))
	var nexts int
	for _, ino := range fs.files {
		nexts += len(ino.extents)
	}
	slab := make([]extInode, len(fs.files))
	exts := make([]extent, nexts)
	for n, ino := range fs.files {
		c := &slab[0]
		slab = slab[1:]
		*c = *ino
		// Capped at its length, so a clone's growth reallocates instead
		// of running into the next inode's extents.
		k := copy(exts, ino.extents)
		c.extents, exts = exts[:k:k], exts[k:]
		cp.files[n] = c
	}
	cp.dirBlocks = make(map[string]int64, len(fs.dirBlocks))
	for k, v := range fs.dirBlocks {
		cp.dirBlocks[k] = v
	}
	return &cp
}

type extImage struct {
	fs *ExtFS // diskless deep copy, never mutated
}

// Snapshot captures the file system as an FSImage.
func (fs *ExtFS) Snapshot() FSImage {
	return extImage{fs: fs.deepCopy()}
}

// Materialize implements FSImage.
func (img extImage) Materialize(disk Disk) FS {
	cp := img.fs.deepCopy()
	cp.disk = disk
	return cp
}

// deepCopy clones a LogFS without its disk. The owner table and the inode
// table refer to inodes by index, so the copy keeps every alias by copying
// both tables slot for slot: the file and directory maps and the dirty list
// remap their pointers through an inode's idx. The inode structs and their
// block maps are each carved from one allocation.
func (fs *LogFS) deepCopy() *LogFS {
	if fs.cleaning {
		panic("fsim: logfs snapshot taken mid-clean")
	}
	cp := *fs
	cp.disk = nil
	cp.freeSegs = append([]int64(nil), fs.freeSegs...)
	cp.liveCount = append([]int32(nil), fs.liveCount...)
	cp.segType = append([]uint8(nil), fs.segType...)
	cp.owner = append([]blockOwner(nil), fs.owner...)
	cp.freeInos = append([]int32(nil), fs.freeInos...)

	var live, nblocks int
	for _, ino := range fs.inodes {
		if ino != nil {
			live++
			nblocks += len(ino.blocks)
		}
	}
	slab := make([]logInode, live)
	blocks := make([]int64, nblocks)
	cp.inodes = make([]*logInode, len(fs.inodes))
	for i, ino := range fs.inodes {
		if ino == nil {
			continue
		}
		c := &slab[0]
		slab = slab[1:]
		*c = *ino
		// Capped at its length, so a clone's growth reallocates instead
		// of running into the next inode's blocks.
		n := copy(blocks, ino.blocks)
		c.blocks, blocks = blocks[:n:n], blocks[n:]
		cp.inodes[i] = c
	}
	cp.files = make(map[string]*logInode, len(fs.files))
	for n, ino := range fs.files {
		cp.files[n] = cp.inodes[ino.idx]
	}
	cp.dirNodes = make(map[string]*logInode, len(fs.dirNodes))
	for n, ino := range fs.dirNodes {
		cp.dirNodes[n] = cp.inodes[ino.idx]
	}
	cp.dirty = make([]*logInode, len(fs.dirty))
	for i, ino := range fs.dirty {
		if ino.idx != 0 {
			cp.dirty[i] = cp.inodes[ino.idx]
		} else {
			// A deleted file: nothing else reaches it, so its copy only
			// has to hold its place until the checkpoint.
			cp.dirty[i] = &logInode{name: ino.name, dirty: true}
		}
	}
	return &cp
}

type logImage struct {
	fs *LogFS // diskless deep copy, never mutated
}

// Snapshot captures the file system as an FSImage. The cleaner must not be
// mid-run (it never is between FS calls).
func (fs *LogFS) Snapshot() FSImage {
	return logImage{fs: fs.deepCopy()}
}

// Materialize implements FSImage.
func (img logImage) Materialize(disk Disk) FS {
	cp := img.fs.deepCopy()
	cp.disk = disk
	return cp
}
