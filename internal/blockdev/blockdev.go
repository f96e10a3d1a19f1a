// Package blockdev holds the logical-block-address view that SSDs present to
// hosts ("For backward-compatibility and faster adoption, SSDs present a
// logical block address (LBA) interface comparable to an HDD" — §1): the
// operations of a block trace, which workload replay plays, and a RAM-backed
// reference device.
package blockdev

import (
	"errors"
	"fmt"
)

// Errors returned by CheckAccess, wrapped with the offending access.
var (
	ErrOutOfBounds = errors.New("blockdev: access beyond device size")
	ErrUnaligned   = errors.New("blockdev: access not sector aligned")
)

// CheckAccess validates that [off, off+n) is a legal, aligned access for a
// device of the given size and sector size.
func CheckAccess(size int64, sector int, off, n int64) error {
	if off < 0 || n < 0 || off+n > size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfBounds, off, n, size)
	}
	if off%int64(sector) != 0 || n%int64(sector) != 0 {
		return fmt.Errorf("%w: off=%d len=%d sector=%d", ErrUnaligned, off, n, sector)
	}
	return nil
}

// RAMDisk is a sparse in-memory block device, the baseline "ideal device"
// against which simulated SSD behaviour is compared. No experiment runs on
// it: it is the reference a simulated drive's reads can be checked against,
// byte for byte.
type RAMDisk struct {
	size    int64
	sector  int
	sectors map[int64][]byte
}

// NewRAMDisk creates a RAM disk of the given size and sector size. It panics
// if size is not a multiple of the sector size (a construction-time bug).
func NewRAMDisk(size int64, sector int) *RAMDisk {
	if sector <= 0 || size < 0 || size%int64(sector) != 0 {
		panic("blockdev: invalid RAMDisk dimensions")
	}
	return &RAMDisk{size: size, sector: sector, sectors: make(map[int64][]byte)}
}

// Size returns the capacity in bytes.
func (d *RAMDisk) Size() int64 { return d.size }

// SectorSize returns the sector size in bytes.
func (d *RAMDisk) SectorSize() int { return d.sector }

// ReadAt fills p from byte offset off. Unwritten sectors read as zeros.
func (d *RAMDisk) ReadAt(p []byte, off int64) error {
	if err := CheckAccess(d.size, d.sector, off, int64(len(p))); err != nil {
		return err
	}
	for i := 0; i < len(p); i += d.sector {
		sec := (off + int64(i)) / int64(d.sector)
		if s, ok := d.sectors[sec]; ok {
			copy(p[i:i+d.sector], s)
		} else {
			clear(p[i : i+d.sector])
		}
	}
	return nil
}

// WriteAt stores p at byte offset off.
func (d *RAMDisk) WriteAt(p []byte, off int64) error {
	if err := CheckAccess(d.size, d.sector, off, int64(len(p))); err != nil {
		return err
	}
	for i := 0; i < len(p); i += d.sector {
		sec := (off + int64(i)) / int64(d.sector)
		buf, ok := d.sectors[sec]
		if !ok {
			buf = make([]byte, d.sector)
			d.sectors[sec] = buf
		}
		copy(buf, p[i:i+d.sector])
	}
	return nil
}

// Trim discards [off, off+length) by dropping whole sectors.
func (d *RAMDisk) Trim(off, length int64) error {
	if err := CheckAccess(d.size, d.sector, off, length); err != nil {
		return err
	}
	for i := int64(0); i < length; i += int64(d.sector) {
		delete(d.sectors, (off+i)/int64(d.sector))
	}
	return nil
}

// Flush makes preceding writes durable (RAM always is here).
func (d *RAMDisk) Flush() error { return nil }
