package fsim

import (
	"fmt"
	"sort"
)

// extent is a contiguous run of data blocks.
type extent struct {
	start int64 // block index in the data zone
	count int64
}

// extInode is one file's metadata.
type extInode struct {
	name    string
	size    int64
	extents []extent
	inodeNo int64
}

// ExtFS is a simplified ext4-style update-in-place file system: a metadata
// zone (superblock, bitmaps, inode table, journal) followed by a data zone
// managed by a first-fit bitmap allocator with per-group goal blocks. Data
// overwrites go in place; every namespace or size change journals metadata
// blocks and rewrites the inode block. Aged free-space bitmaps fragment, so
// new files scatter into many small extents — exactly the aging behaviour
// whose device-dependence Figure 1 demonstrates.
type ExtFS struct {
	disk Disk

	dataBlocks  int64
	dataZoneOff int64 // bytes
	journalOff  int64
	journalLen  int64 // blocks
	inodeOff    int64

	bitmap    []bool // data-zone allocation bitmap
	freeCount int64
	files     map[string]*extInode
	dirBlocks map[string]int64 // directory -> data block holding its entries
	nextInode int64
	journalPt int64
	usedBytes int64

	// goal is the rotating allocation cursor (mimics block-group goals).
	goal int64
}

// NewExtFS formats an ExtFS onto disk.
func NewExtFS(disk Disk) *ExtFS {
	totalBlocks := disk.Size() / BlockSize
	metaBlocks := totalBlocks / 32 // superblock, bitmaps, inode table
	journalLen := totalBlocks / 64
	if journalLen < 8 {
		journalLen = 8
	}
	dataStart := metaBlocks + journalLen
	fs := &ExtFS{
		disk:        disk,
		dataBlocks:  totalBlocks - dataStart,
		dataZoneOff: dataStart * BlockSize,
		journalOff:  metaBlocks * BlockSize,
		journalLen:  journalLen,
		inodeOff:    BlockSize, // inode table right after the superblock
		bitmap:      make([]bool, totalBlocks-dataStart),
		files:       make(map[string]*extInode),
		dirBlocks:   make(map[string]int64),
	}
	fs.freeCount = fs.dataBlocks
	// Format: superblock + zeroed bitmap + inode table headers.
	disk.Write(0, BlockSize)
	disk.Write(fs.inodeOff, 4*BlockSize)
	disk.Sync()
	return fs
}

// Name implements FS.
func (fs *ExtFS) Name() string { return "extfs" }

// CapacityBytes implements FS.
func (fs *ExtFS) CapacityBytes() int64 { return fs.dataBlocks * BlockSize }

// UsedBytes implements FS.
func (fs *ExtFS) UsedBytes() int64 { return fs.usedBytes }

// FreeBlocks returns free data blocks (for aging targets).
func (fs *ExtFS) FreeBlocks() int64 { return fs.freeCount }

// dirOf returns the directory component of a path ("" = root).
func dirOf(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[:i]
		}
	}
	return ""
}

// touchDir rewrites the parent directory's entry block in place — ext-style
// namespace changes are scattered small in-place writes, one per affected
// directory.
func (fs *ExtFS) touchDir(name string) {
	dir := dirOf(name)
	blk, ok := fs.dirBlocks[dir]
	if !ok {
		exts, err := fs.allocExtents(nil, 1)
		if err != nil || len(exts) == 0 {
			return // out of space: directory update is absorbed elsewhere
		}
		blk = exts[0].start
		fs.dirBlocks[dir] = blk
	}
	fs.disk.Write(fs.dataZoneOff+blk*BlockSize, BlockSize)
}

// journalWrite appends n metadata blocks to the circular journal.
func (fs *ExtFS) journalWrite(n int64) {
	for i := int64(0); i < n; i++ {
		off := fs.journalOff + (fs.journalPt%fs.journalLen)*BlockSize
		fs.disk.Write(off, BlockSize)
		fs.journalPt++
	}
}

// inodeWrite rewrites the file's inode block in place.
func (fs *ExtFS) inodeWrite(ino int64) {
	off := fs.inodeOff + (ino%1024)*BlockSize
	fs.disk.Write(off, BlockSize)
}

// allocExtents grabs count blocks first-fit from the goal cursor, splitting
// across free fragments as needed, and returns dst with their extents
// appended. On error it allocates nothing.
func (fs *ExtFS) allocExtents(dst []extent, count int64) ([]extent, error) {
	if count > fs.freeCount {
		return nil, ErrNoSpace
	}
	out, n0 := dst, len(dst)
	remaining := count
	scanned := int64(0)
	pos := fs.goal % fs.dataBlocks
	for remaining > 0 && scanned <= fs.dataBlocks {
		// Find the next free block.
		for scanned <= fs.dataBlocks && fs.bitmap[pos] {
			pos = (pos + 1) % fs.dataBlocks
			scanned++
		}
		if scanned > fs.dataBlocks {
			break
		}
		// Extend the run as far as it is free.
		run := extent{start: pos}
		for remaining > 0 && !fs.bitmap[pos] {
			fs.bitmap[pos] = true
			run.count++
			remaining--
			pos = (pos + 1) % fs.dataBlocks
			scanned++
			if pos == 0 {
				break // wrapped; start a new extent
			}
		}
		out = append(out, run)
	}
	if remaining > 0 {
		// Roll back (should not happen given the freeCount check).
		for _, e := range out[n0:] {
			for b := int64(0); b < e.count; b++ {
				fs.bitmap[e.start+b] = false
			}
		}
		return nil, ErrNoSpace
	}
	fs.freeCount -= count
	fs.goal = pos
	return out, nil
}

func (fs *ExtFS) freeExtents(exts []extent) {
	for _, e := range exts {
		for b := int64(0); b < e.count; b++ {
			fs.bitmap[e.start+b] = false
		}
		fs.freeCount += e.count
		fs.disk.Trim(fs.dataZoneOff+e.start*BlockSize, e.count*BlockSize)
	}
}

// Create implements FS.
func (fs *ExtFS) Create(name string) error {
	if _, ok := fs.files[name]; ok {
		return ErrExists
	}
	fs.nextInode++
	ino := &extInode{name: name, inodeNo: fs.nextInode}
	fs.files[name] = ino
	fs.journalWrite(1)
	fs.inodeWrite(ino.inodeNo)
	fs.touchDir(name)
	return nil
}

// extentAt maps a file block index to its device block.
func (ino *extInode) extentAt(fileBlock int64) (devBlock int64, runLeft int64) {
	idx := int64(0)
	for _, e := range ino.extents {
		if fileBlock < idx+e.count {
			off := fileBlock - idx
			return e.start + off, e.count - off
		}
		idx += e.count
	}
	return -1, 0
}

// Write implements FS: in-place for existing blocks, allocation for growth.
func (fs *ExtFS) Write(name string, off, n int64) error {
	ino, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	if off < 0 || n < 0 {
		return fmt.Errorf("extfs: negative range")
	}
	end := off + n
	// Grow if needed.
	if end > ino.size {
		have := blocks(ino.size)
		need := blocks(end) - have
		if need > 0 {
			exts, err := fs.allocExtents(ino.extents, need)
			if err != nil {
				return err
			}
			ino.extents = exts
		}
		fs.usedBytes += end - ino.size
		ino.size = end
	}
	// Issue data writes per physical extent run.
	fs.forEachRun(ino, off, n, func(devOff, runBytes int64) {
		fs.disk.Write(devOff, runBytes)
	})
	fs.journalWrite(1)
	fs.inodeWrite(ino.inodeNo)
	return nil
}

// forEachRun walks the physically contiguous runs covering [off, off+n).
func (fs *ExtFS) forEachRun(ino *extInode, off, n int64, fn func(devOff, runBytes int64)) {
	if n == 0 {
		return
	}
	fb := off / BlockSize
	lastBlock := (off + n - 1) / BlockSize
	for fb <= lastBlock {
		dev, runLeft := ino.extentAt(fb)
		if dev < 0 {
			return // hole (cannot happen with current API)
		}
		run := lastBlock - fb + 1
		if run > runLeft {
			run = runLeft
		}
		fn(fs.dataZoneOff+dev*BlockSize, run*BlockSize)
		fb += run
	}
}

// Append implements FS.
func (fs *ExtFS) Append(name string, n int64) error {
	ino, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	return fs.Write(name, ino.size, n)
}

// Read implements FS.
func (fs *ExtFS) Read(name string, off, n int64) error {
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
	fs.forEachRun(ino, off, n, func(devOff, runBytes int64) {
		fs.disk.Read(devOff, runBytes)
	})
	return nil
}

// Delete implements FS.
func (fs *ExtFS) Delete(name string) error {
	ino, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	fs.freeExtents(ino.extents)
	fs.usedBytes -= ino.size
	delete(fs.files, name)
	fs.journalWrite(1)
	fs.inodeWrite(ino.inodeNo)
	fs.touchDir(name)
	return nil
}

// Stat implements FS.
func (fs *ExtFS) Stat(name string) (Info, error) {
	ino, ok := fs.files[name]
	if !ok {
		return Info{}, ErrNotFound
	}
	return Info{Name: name, Size: ino.size}, nil
}

// Files implements FS.
func (fs *ExtFS) Files() []string {
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Sync implements FS.
func (fs *ExtFS) Sync() error {
	fs.disk.Sync()
	return nil
}

// FragmentationScore returns the average extents per file — a direct
// measure of aging.
func (fs *ExtFS) FragmentationScore() float64 {
	if len(fs.files) == 0 {
		return 0
	}
	total := 0
	for _, ino := range fs.files {
		total += len(ino.extents)
	}
	return float64(total) / float64(len(fs.files))
}
