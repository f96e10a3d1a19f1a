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

// SSDDisk adapts an ssd.Device to Disk through the device's blocking calls:
// each I/O returns once it completes, so only one is in flight at a time. A
// submission error or a stalled engine is a model bug here, so it panics.
type SSDDisk struct{ dev *ssd.Device }

// NewSSDDisk returns a Disk backed by dev.
func NewSSDDisk(dev *ssd.Device) *SSDDisk { return &SSDDisk{dev: dev} }

// Write implements Disk.
func (d *SSDDisk) Write(off, n int64) { must(d.dev.Write(off, nil, n)) }

// Read implements Disk.
func (d *SSDDisk) Read(off, n int64) { must(d.dev.Read(off, nil, n)) }

// Trim implements Disk.
func (d *SSDDisk) Trim(off, n int64) { must(d.dev.Trim(off, n)) }

// Sync implements Disk.
func (d *SSDDisk) Sync() { must(d.dev.Flush()) }

// Size implements Disk.
func (d *SSDDisk) Size() int64 { return d.dev.Size() }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

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
