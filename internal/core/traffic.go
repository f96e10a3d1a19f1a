package core

import (
	"ssdtp/internal/firmware"
)

// FirmwareTraffic implements Traffic over a firmware.EVO840's host-I/O
// helpers, driving the backing device's engine to completion for each
// operation.
type FirmwareTraffic struct {
	FW *firmware.EVO840
}

// Touch implements Traffic.
func (t FirmwareTraffic) Touch(lsn int64) {
	done := false
	if err := t.FW.HostRead(lsn, 1, func() { done = true }); err != nil {
		panic(err)
	}
	if dev := t.FW.Device(); dev != nil {
		dev.Engine().RunWhile(func() bool { return !done })
	}
}

// TouchWrite implements Traffic.
func (t FirmwareTraffic) TouchWrite(lsn int64) {
	done := false
	if err := t.FW.HostWrite(lsn, 1, func() { done = true }); err != nil {
		panic(err)
	}
	if dev := t.FW.Device(); dev != nil {
		dev.Engine().RunWhile(func() bool { return !done })
	}
}

// Quiesce implements Traffic.
func (t FirmwareTraffic) Quiesce() {
	if dev := t.FW.Device(); dev != nil {
		quiesce(dev)
	}
}

// MaxSector implements Traffic: the scaled backing device bounds real I/O.
func (t FirmwareTraffic) MaxSector() int64 {
	if dev := t.FW.Device(); dev != nil {
		return dev.Size() / firmware.SectorSize
	}
	return int64(firmware.LogicalAddrs)
}
