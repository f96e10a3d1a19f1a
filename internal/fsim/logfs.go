package fsim

import (
	"fmt"
	"slices"
	"sort"
)

// SegmentBlocks is the log-structured segment size in blocks (2 MB).
const SegmentBlocks = 512

// logInode is a file or directory node in LogFS: a per-file-block map into
// the log. A device data block index is stored as int32, like the file
// block in blockOwner: the owner table holds 8 bytes per data block, so a
// disk with more than math.MaxInt32 of them is out of reach anyway.
type logInode struct {
	name   string
	size   int64
	blocks []int32 // file block -> device data block (-1 = hole)
	idx    int32   // slot in LogFS.inodes; 0 once the file is deleted
	dirty  bool    // in LogFS.dirty, awaiting the next checkpoint
	dir    bool    // a directory node, named by its directory; no blocks
}

// blockOwner names the file block a live data block holds. ino is the
// owner's slot in LogFS.inodes; slot 0 is never used, so the zero value
// marks a free block.
type blockOwner struct {
	ino int32
	fb  int32
}

// LogFS is a simplified F2FS-style log-structured file system: all data and
// node (metadata) writes append to per-type logs in large segments; a
// cleaner relocates live blocks from sparse victim segments when free
// segments run low. Sequential large appends are its best case on any SSD;
// aged state makes the cleaner compete with foreground work — how much that
// costs depends on the device underneath, which is Figure 1's point.
type LogFS struct {
	disk Disk

	segCount  int64
	dataStart int64 // first block of segment area

	freeSegs  []int64
	liveCount []int32 // live blocks per segment
	segType   []uint8 // 0 free, 1 data, 2 node

	curData  int64 // current data segment
	curDataP int64 // next block within it
	curNode  int64
	curNodeP int64

	owner []blockOwner // per device data block, for cleaning

	// inodes holds every live file and directory node at its idx, so the
	// owner table and clones refer to inodes by index, not by pointer.
	// freeInos lists the slots deleted files left, reused LIFO.
	inodes   []*logInode
	freeInos []int32

	files     map[string]*logInode
	usedBytes int64
	nodeOps   int64 // node blocks appended
	cleaning  bool

	// dirty batches inode/node updates in memory until Sync, as F2FS does:
	// repeated operations on the same file cost one node write per
	// checkpoint, not one per operation. It holds each dirty inode once,
	// deleted files included.
	dirty    []*logInode
	dirNodes map[string]*logInode

	// cleanLow is the free-segment threshold that triggers cleaning.
	cleanLow int64
}

// NewLogFS formats a LogFS onto disk.
func NewLogFS(disk Disk) *LogFS {
	totalBlocks := disk.Size() / BlockSize
	meta := totalBlocks / 64 // checkpoint + SIT/NAT areas
	segArea := totalBlocks - meta
	segCount := segArea / SegmentBlocks
	fs := &LogFS{
		disk:      disk,
		segCount:  segCount,
		dataStart: meta,
		liveCount: make([]int32, segCount),
		segType:   make([]uint8, segCount),
		owner:     make([]blockOwner, segCount*SegmentBlocks),
		inodes:    []*logInode{nil}, // slot 0 marks a free block
		files:     make(map[string]*logInode),
		dirNodes:  make(map[string]*logInode),
		cleanLow:  3,
	}
	for s := segCount - 1; s >= 0; s-- {
		fs.freeSegs = append(fs.freeSegs, s)
	}
	fs.curData = fs.popFree(1)
	fs.curNode = fs.popFree(2)
	// Format: checkpoint area.
	disk.Write(0, 2*BlockSize)
	disk.Sync()
	return fs
}

// Name implements FS.
func (fs *LogFS) Name() string { return "logfs" }

// CapacityBytes implements FS: reserve cleaning headroom.
func (fs *LogFS) CapacityBytes() int64 {
	return (fs.segCount - fs.cleanLow - 2) * SegmentBlocks * BlockSize
}

// UsedBytes implements FS.
func (fs *LogFS) UsedBytes() int64 { return fs.usedBytes }

func (fs *LogFS) popFree(kind uint8) int64 {
	if len(fs.freeSegs) == 0 {
		panic("logfs: out of segments (cleaner invariant broken)")
	}
	s := fs.freeSegs[len(fs.freeSegs)-1]
	fs.freeSegs = fs.freeSegs[:len(fs.freeSegs)-1]
	fs.segType[s] = kind
	return s
}

// blockOff converts a device data block to a byte offset.
func (fs *LogFS) blockOff(b int64) int64 {
	return (fs.dataStart + b) * BlockSize
}

// appendDataRun appends data blocks for file blocks [fb, fb+n) of one file
// and points the file's block map at them, coalescing device writes over
// contiguous log runs (the log head advances sequentially, so a multi-block
// write is one large device I/O — the mechanism behind a log-structured
// file system's SSD-friendliness).
func (fs *LogFS) appendDataRun(ino *logInode, fb, n int64) {
	for n > 0 {
		if fs.curDataP == SegmentBlocks {
			fs.curData = fs.popFree(1)
			fs.curDataP = 0
			fs.maybeClean()
		}
		run := min(n, SegmentBlocks-fs.curDataP)
		first := fs.curData*SegmentBlocks + fs.curDataP
		for b := first; b < first+run; b++ {
			fs.owner[b] = blockOwner{ino: ino.idx, fb: int32(fb)}
			ino.blocks[fb] = int32(b)
			fb++
		}
		fs.liveCount[fs.curData] += int32(run)
		fs.curDataP += run
		fs.disk.Write(fs.blockOff(first), run*BlockSize)
		n -= run
	}
}

// addInode gives ino a slot in the inode table.
func (fs *LogFS) addInode(ino *logInode) {
	if n := len(fs.freeInos); n > 0 {
		ino.idx = fs.freeInos[n-1]
		fs.freeInos = fs.freeInos[:n-1]
		fs.inodes[ino.idx] = ino
		return
	}
	ino.idx = int32(len(fs.inodes))
	fs.inodes = append(fs.inodes, ino)
}

// markNodeDirty records that a file's node block needs writing at the next
// checkpoint.
func (fs *LogFS) markNodeDirty(ino *logInode) {
	if !ino.dirty {
		ino.dirty = true
		fs.dirty = append(fs.dirty, ino)
	}
}

// markDirDirty batches a directory update: directories are nodes too, and
// in a log-structured design their churn coalesces into the checkpoint
// instead of scattering in-place writes.
func (fs *LogFS) markDirDirty(dir string) {
	ino, ok := fs.dirNodes[dir]
	if !ok {
		ino = &logInode{name: dir, dir: true}
		fs.addInode(ino)
		fs.dirNodes[dir] = ino
	}
	fs.markNodeDirty(ino)
}

// appendNode appends one node (metadata) block to the node log.
func (fs *LogFS) appendNode() {
	if fs.curNodeP == SegmentBlocks {
		fs.curNode = fs.popFree(2)
		fs.curNodeP = 0
		fs.maybeClean()
	}
	b := fs.curNode*SegmentBlocks + fs.curNodeP
	fs.curNodeP++
	// Node blocks are superseded quickly; model them as immediately dead
	// for cleaning purposes (F2FS node segments age fast).
	fs.disk.Write(fs.blockOff(b), BlockSize)
	fs.nodeOps++
}

// flushNodes writes one node block per dirty inode (plus one NAT block per
// 64) and clears the dirty set.
func (fs *LogFS) flushNodes() {
	n := len(fs.dirty)
	if n == 0 {
		return
	}
	for _, ino := range fs.dirty {
		ino.dirty = false
		fs.appendNode()
	}
	for extra := n / 64; extra >= 0; extra-- {
		fs.appendNode() // NAT updates
		if extra == 0 {
			break
		}
	}
	clear(fs.dirty)
	fs.dirty = fs.dirty[:0]
}

// invalidate kills a data block.
func (fs *LogFS) invalidate(b int64) {
	seg := b / SegmentBlocks
	fs.liveCount[seg]--
	fs.owner[b] = blockOwner{}
}

// maybeClean runs the segment cleaner until free segments recover. The
// guard prevents re-entry: cleaning itself appends blocks, which would
// otherwise recurse into cleaning the segment being cleaned.
func (fs *LogFS) maybeClean() {
	if fs.cleaning {
		return
	}
	fs.cleaning = true
	defer func() { fs.cleaning = false }()
	for int64(len(fs.freeSegs)) < fs.cleanLow {
		victim := fs.pickVictim()
		if victim < 0 {
			return
		}
		fs.cleanSegment(victim)
	}
}

// pickVictim returns the closed data segment with the fewest live blocks.
func (fs *LogFS) pickVictim() int64 {
	best := int64(-1)
	var bestLive int32
	for s := int64(0); s < fs.segCount; s++ {
		if fs.segType[s] == 0 || s == fs.curData || s == fs.curNode {
			continue
		}
		if fs.segType[s] == 2 {
			// Node segments: reclaimable wholesale (contents superseded).
			return s
		}
		if fs.liveCount[s] == SegmentBlocks {
			continue
		}
		if best < 0 || fs.liveCount[s] < bestLive {
			best, bestLive = s, fs.liveCount[s]
		}
	}
	return best
}

// cleanSegment relocates live blocks and frees the segment.
func (fs *LogFS) cleanSegment(victim int64) {
	if fs.segType[victim] == 1 {
		base := victim * SegmentBlocks
		owners := fs.owner[base : base+SegmentBlocks]
		// Read live blocks in contiguous runs (the cleaner reads whole
		// victim extents, not block by block).
		runStart, runLen := int64(-1), int64(0)
		flushRead := func() {
			if runLen > 0 {
				fs.disk.Read(fs.blockOff(runStart), runLen*BlockSize)
			}
			runStart, runLen = -1, 0
		}
		for i, own := range owners {
			if own.ino == 0 {
				flushRead()
				continue
			}
			if runLen == 0 {
				runStart = base + int64(i)
			}
			runLen++
		}
		flushRead()
		for i, own := range owners {
			if own.ino == 0 {
				continue
			}
			fs.invalidate(base + int64(i))
			fs.appendDataRun(fs.inodes[own.ino], int64(own.fb), 1)
		}
	}
	fs.segType[victim] = 0
	fs.liveCount[victim] = 0
	fs.freeSegs = append(fs.freeSegs, victim)
	fs.disk.Trim(fs.blockOff(victim*SegmentBlocks), SegmentBlocks*BlockSize)
}

// Create implements FS.
func (fs *LogFS) Create(name string) error {
	if _, ok := fs.files[name]; ok {
		return ErrExists
	}
	ino := &logInode{name: name}
	fs.addInode(ino)
	fs.files[name] = ino
	fs.markNodeDirty(ino)
	fs.markDirDirty(dirOf(name))
	return nil
}

// Write implements FS.
func (fs *LogFS) Write(name string, off, n int64) error {
	ino, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	if off < 0 || n < 0 {
		return fmt.Errorf("logfs: negative range")
	}
	end := off + n
	if end > ino.size {
		grow := blocks(end) - int64(len(ino.blocks))
		if grow*BlockSize > fs.CapacityBytes()-fs.usedBytes {
			return ErrNoSpace
		}
		ino.blocks = slices.Grow(ino.blocks, int(grow))
		for i := int64(0); i < grow; i++ {
			ino.blocks = append(ino.blocks, -1)
		}
		fs.usedBytes += end - ino.size
		ino.size = end
	}
	first := off / BlockSize
	last := (off + n - 1) / BlockSize
	if n == 0 {
		last = first - 1
	}
	for fb := first; fb <= last; fb++ {
		if old := ino.blocks[fb]; old >= 0 {
			fs.invalidate(int64(old))
		}
	}
	fs.appendDataRun(ino, first, last-first+1)
	// Node updates (inode + indirect blocks) batch in memory until the
	// next checkpoint.
	fs.markNodeDirty(ino)
	return nil
}

// Append implements FS.
func (fs *LogFS) Append(name string, n int64) error {
	ino, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	return fs.Write(name, ino.size, n)
}

// Read implements FS.
func (fs *LogFS) Read(name string, off, n int64) error {
	ino, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	if off+n > ino.size {
		n = ino.size - off
	}
	if n <= 0 {
		return nil
	}
	first := off / BlockSize
	last := (off + n - 1) / BlockSize
	// Coalesce physically contiguous runs; holes (never-written blocks)
	// cost no I/O.
	runStart, runLen := int64(-1), int64(0)
	flush := func() {
		if runStart >= 0 && runLen > 0 {
			fs.disk.Read(fs.blockOff(runStart), runLen*BlockSize)
		}
		runStart, runLen = -1, 0
	}
	for fb := first; fb <= last; fb++ {
		b := int64(ino.blocks[fb])
		if b < 0 {
			flush()
			continue
		}
		if runStart >= 0 && b == runStart+runLen {
			runLen++
			continue
		}
		flush()
		runStart, runLen = b, 1
	}
	flush()
	return nil
}

// Delete implements FS.
func (fs *LogFS) Delete(name string) error {
	ino, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	for _, b := range ino.blocks {
		if b >= 0 {
			fs.invalidate(int64(b))
		}
	}
	fs.usedBytes -= ino.size
	delete(fs.files, name)
	fs.inodes[ino.idx] = nil
	fs.freeInos = append(fs.freeInos, ino.idx)
	ino.idx = 0
	fs.markNodeDirty(ino)
	fs.markDirDirty(dirOf(name))
	return nil
}

// Stat implements FS.
func (fs *LogFS) Stat(name string) (Info, error) {
	ino, ok := fs.files[name]
	if !ok {
		return Info{}, ErrNotFound
	}
	return Info{Name: name, Size: ino.size}, nil
}

// Files implements FS.
func (fs *LogFS) Files() []string {
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Sync implements FS: checkpoint — flush batched node updates, then flush
// the device.
func (fs *LogFS) Sync() error {
	fs.flushNodes()
	fs.disk.Sync()
	return nil
}
