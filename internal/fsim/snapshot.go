package fsim

import (
	"maps"
	"slices"
)

// File-system images (DESIGN.md §8). Aging a file system is the expensive
// half of a Figure-1/Table-S7 cell; the in-memory state it produces is
// deterministic given the profile and seed. Snapshot detaches that state
// from its disk as an FSImage; Materialize builds a fresh file system from it
// on another disk — typically a device restored from the matching
// ssd.DeviceState — so each cell pays for aging once instead of once per
// trial.
//
// An image keeps only the state its inodes do not determine, since the
// preconditioning cache holds every image for a whole run. A LogFS image
// keeps the scalars and cursors, the free-segment stack, segment types and
// free inode slots in their order, the inode slot table with each inode's
// block map, and the dirty list in order; Materialize rebuilds the owner
// table, the per-segment live counts and the file and directory maps in one
// pass over the inodes. An ExtFS image keeps the scalars, the inodes with
// their extents and the directory blocks; Materialize rebuilds the
// allocation bitmap and the file map. The rebuild is exact because of what
// auditLogFS and auditExtFS check on every aged, cloned and exercised file
// system: a LogFS owner slot b names (ino, fb) exactly when
// ino.blocks[fb] == b and each segment's live count is its owned slots; an
// ExtFS bitmap bit is set exactly when its block lies in one file extent or
// is a directory block. TestFSImageRoundTrip compares a materialized file
// system with its source field by field. Not storing the derived tables
// took perfbench paper-quick's live heap, which holds the twelve aged
// images of fig1 and tabS7, from 11.3 to 8.7 MB (seed 42, shared 2-vCPU
// VM).

// FSImage is a detached, immutable capture of a file system's in-memory
// state. It holds no disk reference and can be materialized any number of
// times.
type FSImage interface {
	// Materialize builds a live file system on disk from the image. The
	// result shares nothing mutable with the image, which stays valid for
	// further materializations.
	Materialize(disk Disk) FS
}

type extImage struct {
	fs     ExtFS      // scalars and dirBlocks; no disk, bitmap or files
	inodes []extInode // every file; extents carved from one array
}

// Snapshot captures the file system as an FSImage.
func (fs *ExtFS) Snapshot() FSImage {
	img := &extImage{fs: *fs}
	img.fs.disk, img.fs.bitmap, img.fs.files = nil, nil, nil
	img.fs.dirBlocks = maps.Clone(fs.dirBlocks)
	img.inodes = make([]extInode, 0, len(fs.files))
	for _, ino := range fs.files {
		img.inodes = append(img.inodes, *ino)
	}
	carve(img.inodes, extentsOf)
	return img
}

// Materialize implements FSImage: it copies the inodes and rebuilds the
// file map and the allocation bitmap from their extents and the directory
// blocks.
func (img *extImage) Materialize(disk Disk) FS {
	fs := img.fs
	fs.disk = disk
	fs.dirBlocks = maps.Clone(img.fs.dirBlocks)
	fs.bitmap = make([]bool, fs.dataBlocks)
	for _, blk := range fs.dirBlocks {
		fs.bitmap[blk] = true
	}
	inodes := slices.Clone(img.inodes)
	carve(inodes, extentsOf)
	fs.files = make(map[string]*extInode, len(inodes))
	for i := range inodes {
		ino := &inodes[i]
		fs.files[ino.name] = ino
		for _, e := range ino.extents {
			for b := e.start; b < e.start+e.count; b++ {
				fs.bitmap[b] = true
			}
		}
	}
	return &fs
}

// carve copies the slice part names in each inode into one new array and
// points each inode at its part of it. Each part is capped at its length,
// so a clone's growth reallocates instead of running into the next inode's.
func carve[I, E any](inodes []I, part func(*I) *[]E) {
	var n int
	for i := range inodes {
		n += len(*part(&inodes[i]))
	}
	rest := make([]E, n)
	for i := range inodes {
		p := part(&inodes[i])
		k := copy(rest, *p)
		*p, rest = rest[:k:k], rest[k:]
	}
}

func extentsOf(ino *extInode) *[]extent { return &ino.extents }
func blocksOf(ino *logInode) *[]int64   { return &ino.blocks }

type logImage struct {
	// fs holds the scalars, cursors, freeSegs, segType and freeInos; its
	// disk, owner, liveCount, inodes, files, dirNodes and dirty are unset.
	fs LogFS
	// inodes is the slot table by value: slot i holds the inode whose idx
	// is i, and a free slot (slot 0 among them) is the zero inode. The
	// block maps are carved from one array.
	inodes []logInode
	nfiles int
	// dirty lists the dirty inodes' slots in order; 0 holds the place of
	// a deleted file until the checkpoint.
	dirty []int32
}

// Snapshot captures the file system as an FSImage. The cleaner must not be
// mid-run (it never is between FS calls).
func (fs *LogFS) Snapshot() FSImage {
	if fs.cleaning {
		panic("fsim: logfs snapshot taken mid-clean")
	}
	img := &logImage{fs: *fs, nfiles: len(fs.files)}
	img.fs.disk, img.fs.owner, img.fs.liveCount = nil, nil, nil
	img.fs.inodes, img.fs.files, img.fs.dirNodes, img.fs.dirty = nil, nil, nil, nil
	img.fs.freeSegs = slices.Clone(fs.freeSegs)
	img.fs.segType = slices.Clone(fs.segType)
	img.fs.freeInos = slices.Clone(fs.freeInos)
	img.inodes = make([]logInode, len(fs.inodes))
	for i, ino := range fs.inodes {
		if ino != nil {
			img.inodes[i] = *ino
		}
	}
	carve(img.inodes, blocksOf)
	img.dirty = make([]int32, len(fs.dirty))
	for i, ino := range fs.dirty {
		img.dirty[i] = ino.idx
	}
	return img
}

// Materialize implements FSImage: it copies the slot table and rebuilds the
// owner table, the live counts and the file and directory maps from the
// inodes' block maps.
func (img *logImage) Materialize(disk Disk) FS {
	fs := img.fs
	fs.disk = disk
	fs.freeSegs = slices.Clone(img.fs.freeSegs)
	fs.segType = slices.Clone(img.fs.segType)
	fs.freeInos = slices.Clone(img.fs.freeInos)
	fs.owner = make([]blockOwner, fs.segCount*SegmentBlocks)
	fs.liveCount = make([]int32, fs.segCount)

	slab := slices.Clone(img.inodes)
	carve(slab, blocksOf)
	fs.inodes = make([]*logInode, len(slab))
	fs.files = make(map[string]*logInode, img.nfiles)
	// Every live inode that is not a file is a directory node.
	fs.dirNodes = make(map[string]*logInode, len(slab)-len(img.fs.freeInos)-1-img.nfiles)
	for i := range slab {
		ino := &slab[i]
		if ino.idx == 0 {
			continue
		}
		fs.inodes[i] = ino
		if ino.dir {
			fs.dirNodes[ino.name] = ino
			continue
		}
		fs.files[ino.name] = ino
		for fb, b := range ino.blocks {
			if b >= 0 {
				fs.owner[b] = blockOwner{ino: ino.idx, fb: int32(fb)}
				fs.liveCount[b/SegmentBlocks]++
			}
		}
	}

	fs.dirty = make([]*logInode, len(img.dirty))
	var deleted *logInode
	for i, idx := range img.dirty {
		if idx == 0 {
			// Deleted files: nothing else reaches them, so one inode
			// holds all their places until the checkpoint.
			if deleted == nil {
				deleted = &logInode{dirty: true}
			}
			fs.dirty[i] = deleted
			continue
		}
		fs.dirty[i] = fs.inodes[idx]
	}
	return &fs
}
