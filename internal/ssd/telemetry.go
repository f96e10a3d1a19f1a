package ssd

import (
	"ssdtp/internal/sim"
	"ssdtp/internal/telemetry"
)

// The transparency log page (DESIGN.md §14): the host-queryable disclosure
// interface the paper's §4 argues vendors should provide. FillLogPage is the
// query — every field is device ground truth a controller could cheaply
// expose. NewDevice binds it as the tracer's page source, so a traced cell
// samples it on aligned simulated-clock boundaries, byte-identical at any
// -parallel setting.

// FillLogPage fills p with the device's current transparency log page.
// Counters are cumulative since construction; gauges are instantaneous.
func (d *Device) FillLogPage(p *telemetry.Page) {
	c := d.fl.Counters()
	p.Drives = 1
	p.HostSectorsWritten = c.HostSectorsWritten
	p.HostSectorsRead = c.HostSectorsRead
	p.HostPagesProgrammed = c.DataPagesProgrammed
	p.PagesProgrammed = c.PagesProgrammed()
	p.GCPagesProgrammed = c.GCPagesProgrammed
	p.GCPageReads = c.GCPageReads
	p.GCRuns = c.GCRuns
	p.Erases = c.Erases
	p.ActiveGCUnits = d.fl.GCRunningPUs()
	p.GCVictimValidPPM = d.fl.GCVictimValidPPM()
	p.FreeBlocks = int64(d.fl.FreeBlocks())
	p.FreeBlocksMin = int64(d.fl.FreeBlocksMin())
	p.GCReserveBlocks = int64(d.fl.GCReserveBlocks())
	p.CacheDirtyBytes = d.fl.DirtyCacheBytes()
	p.CacheCapBytes = d.fl.CacheCapBytes()
	p.QueueDepth = d.fl.BacklogDepth()
	p.Channels = int64(d.cfg.Channels)
	var busy, wait sim.Time
	for ch := 0; ch < d.cfg.Channels; ch++ {
		b := d.array.Bus(ch)
		busy += b.Utilization()
		wait += b.WaitTime()
	}
	p.BusBusyNS = int64(busy)
	p.BusWaitNS = int64(wait)
	p.ScrubReads = c.ScrubReads
	p.RefreshPagesProgrammed = c.RefreshPagesProgrammed
	p.RefreshPending = d.fl.RefreshPending()
}
