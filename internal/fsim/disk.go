// Package fsim provides the file-system substrate for the paper's Figure 1:
// a simplified update-in-place file system (extfs, ext4-like) and a
// log-structured one (logfs, F2FS-like) running on simulated SSDs, a
// Geriatrix-style aging engine, and a filebench-style fileserver benchmark.
// The figure's claim — that the F2FS/EXT4 performance ratio varies with
// device model and aging state, contradicting a blanket "2x or more" — falls
// out of how each file system's block allocation interacts with each FTL.
package fsim

import (
	"ssdtp/internal/ssd"
)

// Disk is the I/O surface the file systems drive. Offsets/lengths are in
// bytes, block-aligned. Implementations account (and, for SSD-backed disks,
// simulate the duration of) each operation.
type Disk interface {
	// Write stores n bytes at off.
	Write(off, n int64)
	// Read fetches n bytes at off.
	Read(off, n int64)
	// Trim discards n bytes at off.
	Trim(off, n int64)
	// Sync flushes volatile state.
	Sync()
	// Size returns capacity in bytes.
	Size() int64
}

// SSDDisk adapts an ssd.Device to Disk by driving its engine synchronously.
// Every I/O waits on the one completion flag through the same two prebuilt
// funcs, so a steady-state I/O allocates nothing. Only one I/O is in flight
// at a time: each call returns once its own completes.
type SSDDisk struct {
	dev     *ssd.Device
	done    bool
	finish  func()      // sets done; the device's completion callback
	pending func() bool // reports !done; the engine's run condition
}

// NewSSDDisk returns a Disk backed by dev.
func NewSSDDisk(dev *ssd.Device) *SSDDisk {
	d := &SSDDisk{dev: dev}
	d.finish = func() { d.done = true }
	d.pending = func() bool { return !d.done }
	return d
}

// Write implements Disk.
func (d *SSDDisk) Write(off, n int64) {
	d.done = false
	if err := d.dev.WriteAsync(off, nil, n, d.finish); err != nil {
		panic(err)
	}
	d.dev.Engine().RunWhile(d.pending)
}

// Read implements Disk.
func (d *SSDDisk) Read(off, n int64) {
	d.done = false
	if err := d.dev.ReadAsync(off, nil, n, d.finish); err != nil {
		panic(err)
	}
	d.dev.Engine().RunWhile(d.pending)
}

// Trim implements Disk.
func (d *SSDDisk) Trim(off, n int64) {
	d.done = false
	if err := d.dev.TrimAsync(off, n, d.finish); err != nil {
		panic(err)
	}
	d.dev.Engine().RunWhile(d.pending)
}

// Sync implements Disk.
func (d *SSDDisk) Sync() {
	d.done = false
	d.dev.FlushAsync(d.finish)
	d.dev.Engine().RunWhile(d.pending)
}

// Size implements Disk.
func (d *SSDDisk) Size() int64 { return d.dev.Size() }

// MemDisk is a counting no-op disk for file-system unit tests.
type MemDisk struct {
	Cap          int64
	Writes       int64
	Reads        int64
	Trims        int64
	Syncs        int64
	BytesWritten int64
	BytesRead    int64
	// MaxOffSeen tracks the highest byte touched, to catch out-of-bounds
	// layout bugs.
	MaxOffSeen int64
}

// Write implements Disk.
func (d *MemDisk) Write(off, n int64) {
	d.check(off, n)
	d.Writes++
	d.BytesWritten += n
}

// Read implements Disk.
func (d *MemDisk) Read(off, n int64) {
	d.check(off, n)
	d.Reads++
	d.BytesRead += n
}

// Trim implements Disk.
func (d *MemDisk) Trim(off, n int64) {
	d.check(off, n)
	d.Trims++
}

// Sync implements Disk.
func (d *MemDisk) Sync() { d.Syncs++ }

// Size implements Disk.
func (d *MemDisk) Size() int64 { return d.Cap }

func (d *MemDisk) check(off, n int64) {
	if off < 0 || n < 0 || off+n > d.Cap {
		panic("fsim: disk access out of bounds")
	}
	if off+n > d.MaxOffSeen {
		d.MaxOffSeen = off + n
	}
}
