package ssd

import (
	"fmt"

	"ssdtp/internal/cow"
	"ssdtp/internal/ftl"
	"ssdtp/internal/nand"
	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/smart"
)

// Config describes one SSD model.
type Config struct {
	// Name labels the model in reports.
	Name string

	Channels        int
	ChipsPerChannel int
	Geometry        nand.Geometry
	Timing          nand.Timing

	// FTL carries the translation-layer design point. Geometry, channel
	// shape and sector size are filled in by NewDevice.
	FTL ftl.Config

	// CounterUnitBytes is how much programmed flash increments the
	// S.M.A.R.T. "NAND Pages" counters by one. The MX500 counts dual-plane
	// 16 KB program pairs: 32 KB per tick. 0 defaults to the page size.
	CounterUnitBytes int

	// HostOverhead is per-request interface/firmware processing time.
	HostOverhead sim.Time

	// StoreContent keeps write payloads in a side store beside the FTL, so
	// reads return the bytes last written. No experiment, CLI or benchmark
	// turns it on (the file-system model passes nil buffers); only the ssd
	// package's own tests do.
	StoreContent bool

	// ChipID identifies the flash parts (READ ID / parameter page).
	ChipID nand.ChipID
	// Reliability enables the NAND bit-error model on every chip.
	Reliability nand.Reliability
	// WearLimit, if positive, is the per-block erase endurance; blocks
	// past it fail and the FTL retires them.
	WearLimit int

	// Trace, when non-nil, captures request-lifecycle spans and FTL events
	// for this device (see internal/obs). NewDevice binds the tracer to the
	// device's engine and hands it to the FTL; nil (the default) keeps the
	// whole observability layer at zero cost.
	Trace *obs.Tracer
}

// Device is a complete simulated SSD. Its I/O entry points are asynchronous
// on the simulation engine (WriteAsync, ReadAsync, TrimAsync, FlushAsync);
// Write, Read, Trim and Flush (sync.go) submit one and run the engine until
// it completes, for callers that issue one I/O at a time.
type Device struct {
	eng   *sim.Engine
	cfg   Config
	array *Array
	fl    *ftl.FTL
	tr    *obs.Tracer   // nil when tracing is off
	prof  *obs.Profiler // latency attribution; nil when tracing is off

	sectorSize int
	content    *cow.Bytes // byte-addressed payload store when StoreContent

	// reqFree recycles ioReq descriptors (see pooled.go).
	reqFree *ioReq

	hostBytesWritten int64
	hostBytesRead    int64

	inflightFlushes int

	blk *blocker // blocking-call state; nil until the first blocking call
}

// contentChunkSectors is the payload store's chunk length in sectors (64 KiB
// at the default 4 KiB sector): fine enough that a clone's dirty set tracks
// what it actually rewrote, coarse enough to keep chunk bookkeeping small.
const contentChunkSectors = 16

// maxOutstandingFlushes bounds FLUSH commands concurrently outstanding at
// the device — the submission-queue analogue of the read/write validation
// errors. Generously above any host-interface queue depth in this
// repository; hitting it means a runaway flush loop, and FlushAsync reports
// it instead of accepting unbounded work.
const maxOutstandingFlushes = 1024

// NewDevice assembles a device on eng per cfg.
func NewDevice(eng *sim.Engine, cfg Config) *Device {
	fcfg := cfg.FTL
	fcfg.Geometry = cfg.Geometry
	fcfg.Channels = cfg.Channels
	fcfg.ChipsPerChannel = cfg.ChipsPerChannel
	fcfg.Trace = cfg.Trace
	if fcfg.SectorSize == 0 {
		fcfg.SectorSize = 4096
	}
	cfg.Trace.BindEngine(eng)
	if cfg.CounterUnitBytes == 0 {
		cfg.CounterUnitBytes = cfg.Geometry.PageSize
	}
	if cfg.HostOverhead == 0 {
		cfg.HostOverhead = 5 * sim.Microsecond
	}
	array := NewArray(eng, ArrayConfig{
		Channels:        cfg.Channels,
		ChipsPerChannel: cfg.ChipsPerChannel,
		Geometry:        cfg.Geometry,
		Timing:          cfg.Timing,
		ID:              cfg.ChipID,
		Reliability:     cfg.Reliability,
		WearLimit:       cfg.WearLimit,
	})
	array.SetTrace(cfg.Trace)
	d := &Device{
		eng:        eng,
		cfg:        cfg,
		array:      array,
		fl:         ftl.New(eng, array, fcfg),
		tr:         cfg.Trace,
		prof:       cfg.Trace.Prof(),
		sectorSize: fcfg.SectorSize,
	}
	if cfg.StoreContent {
		// Chunked copy-on-write payload store: sectors the host never wrote
		// read back as zeros (implicit-fill chunks cost nothing), and
		// snapshot/clone is O(dirty chunks) instead of O(written bytes).
		// The chunk length is a multiple of the sector size so every
		// sector-aligned write lands inside one chunk.
		d.content = cow.NewBytes(d.Size(), contentChunkSectors*int64(d.sectorSize))
	}
	cfg.Trace.SetPageSource(d.FillLogPage)
	return d
}

// Engine returns the simulation engine the device runs on.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Tracer returns the device's tracer (nil when tracing is off), so layers
// above the device (hostif) can annotate the same trace stream.
func (d *Device) Tracer() *obs.Tracer { return d.tr }

// Boot runs the controller's power-on sequence (chip enumeration). Optional
// for experiments that only need the data path; reverse-engineering rigs
// call it while probes are attached.
func (d *Device) Boot(done func()) { d.array.Enumerate(done) }

// Mount simulates the boot-time mapping-table reload (see ftl.Mount): chip
// enumeration followed by the map read, eager or on-demand.
func (d *Device) Mount(eager bool, done func()) {
	d.array.Enumerate(func() {
		d.fl.Mount(eager, done)
	})
}

// Name returns the model name.
func (d *Device) Name() string { return d.cfg.Name }

// FTL exposes the translation layer. Reverse-engineering code must not call
// this — it is ground truth for validation and for the firmware package.
func (d *Device) FTL() *ftl.FTL { return d.fl }

// Array exposes the flash array (probe attachment, teardown inspection).
func (d *Device) Array() *Array { return d.array }

// Size returns host-visible capacity in bytes.
func (d *Device) Size() int64 {
	return d.fl.LogicalSectors() * int64(d.sectorSize)
}

// SectorSize returns the logical sector size.
func (d *Device) SectorSize() int { return d.sectorSize }

// HostBytesWritten returns total bytes the host has written.
func (d *Device) HostBytesWritten() int64 { return d.hostBytesWritten }

// HostBytesRead returns total bytes the host has read.
func (d *Device) HostBytesRead() int64 { return d.hostBytesRead }

// checkIO validates an async I/O range.
func (d *Device) checkIO(off, n int64) error {
	if off < 0 || n < 0 || off+n > d.Size() {
		return fmt.Errorf("ssd %s: access [%d,+%d) beyond size %d", d.cfg.Name, off, n, d.Size())
	}
	if off%int64(d.sectorSize) != 0 || n%int64(d.sectorSize) != 0 {
		return fmt.Errorf("ssd %s: unaligned access off=%d len=%d", d.cfg.Name, off, n)
	}
	return nil
}

// WriteAsync submits a host write; done fires at request completion. data
// may be nil for timing-only workloads (with StoreContent off).
func (d *Device) WriteAsync(off int64, data []byte, length int64, done func()) error {
	if data != nil {
		length = int64(len(data))
	}
	if err := d.checkIO(off, length); err != nil {
		return err
	}
	if d.content != nil && data != nil {
		ss := int64(d.sectorSize)
		for i := int64(0); i < length; i += ss {
			copy(d.content.MutSpan(off+i, off+i+ss), data[i:i+ss])
		}
	}
	d.hostBytesWritten += length
	lsn := off / int64(d.sectorSize)
	count := int(length / int64(d.sectorSize))
	d.submitIO(ioWrite, "ssd.write", off, length, lsn, count, done)
	return nil
}

// ReadAsync submits a host read; done fires when all data is available. buf
// may be nil for timing-only workloads.
func (d *Device) ReadAsync(off int64, buf []byte, length int64, done func()) error {
	if buf != nil {
		length = int64(len(buf))
	}
	if err := d.checkIO(off, length); err != nil {
		return err
	}
	if d.content != nil && buf != nil {
		d.content.CopyOut(off, off+length, buf[:length])
	}
	d.hostBytesRead += length
	lsn := off / int64(d.sectorSize)
	count := int(length / int64(d.sectorSize))
	d.submitIO(ioRead, "ssd.read", off, length, lsn, count, done)
	return nil
}

// TrimAsync discards a range.
func (d *Device) TrimAsync(off, length int64, done func()) error {
	if err := d.checkIO(off, length); err != nil {
		return err
	}
	if d.content != nil {
		d.content.FillRange(off, off+length)
	}
	lsn := off / int64(d.sectorSize)
	count := int(length / int64(d.sectorSize))
	d.submitIO(ioTrim, "ssd.trim", off, length, lsn, count, done)
	return nil
}

// FlushAsync drains the device write cache and settles background work; done
// fires once everything has settled. Like the other async entry points it
// returns submission errors: ErrFlushBacklog when maxOutstandingFlushes
// flushes are already in flight (the command is not accepted and done will
// never fire).
func (d *Device) FlushAsync(done func()) error {
	if d.inflightFlushes >= maxOutstandingFlushes {
		return ErrFlushBacklog
	}
	d.inflightFlushes++
	d.submitIO(ioFlush, "ssd.flush", 0, 0, 0, 0, done)
	return nil
}

// SMART renders the current S.M.A.R.T. attribute table. Counter semantics
// follow the MX500's documented attributes: 246 counts host sectors, 247/248
// count "NAND Pages" in CounterUnitBytes units — the opaque unit whose
// meaning the paper's Figure 4a experiment has to infer.
func (d *Device) SMART() *smart.Table {
	c := d.fl.Counters()
	unit := int64(d.cfg.CounterUnitBytes)
	page := int64(d.cfg.Geometry.PageSize)
	t := smart.NewTable()
	t.Define(smart.AttrTotalHostSectorWrites, "Total_Host_Sector_Writes")
	t.Set(smart.AttrTotalHostSectorWrites, c.HostSectorsWritten)
	t.Define(smart.AttrHostProgramPageCount, "Host_Program_Page_Count")
	t.Set(smart.AttrHostProgramPageCount, c.DataPagesProgrammed*page/unit)
	t.Define(smart.AttrFTLProgramPageCount, "FTL_Program_Page_Count")
	ftlPages := c.GCPagesProgrammed + c.MapPagesProgrammed + c.ParityPagesProgrammed
	t.Set(smart.AttrFTLProgramPageCount, ftlPages*page/unit)
	t.Define(smart.AttrTotalLBAsWritten, "Total_LBAs_Written")
	t.Set(smart.AttrTotalLBAsWritten, d.hostBytesWritten/512)
	maxErase, _ := d.array.WearStats()
	t.Define(smart.AttrWearLevelingCount, "Wear_Leveling_Count")
	t.Set(smart.AttrWearLevelingCount, int64(maxErase))
	t.Define(smart.AttrPowerOnHours, "Power_On_Hours")
	t.Set(smart.AttrPowerOnHours, int64(d.eng.Now()/(3600*sim.Second)))
	return t
}

// PublishMetrics snapshots the device's ground-truth state — FTL counters,
// free-space/valid-sector gauges, host byte totals — into tr's metric set
// under stable ssdtp_* names. Call it at the end of a run (experiments call
// it per cell); every value derives from the simulation, so the resulting
// dump is deterministic. A nil tracer makes this a no-op.
func (d *Device) PublishMetrics(tr *obs.Tracer) {
	m := tr.Metrics()
	if m == nil {
		return
	}
	c := d.fl.Counters()
	m.Set("ssdtp_host_bytes_written_total", d.hostBytesWritten)
	m.Set("ssdtp_host_bytes_read_total", d.hostBytesRead)
	m.Set("ssdtp_ftl_host_write_requests_total", c.HostWriteRequests)
	m.Set("ssdtp_ftl_host_read_requests_total", c.HostReadRequests)
	m.Set("ssdtp_ftl_host_sectors_written_total", c.HostSectorsWritten)
	m.Set("ssdtp_ftl_host_sectors_read_total", c.HostSectorsRead)
	m.Set("ssdtp_ftl_trimmed_sectors_total", c.TrimmedSectors)
	m.Set("ssdtp_ftl_cache_hits_total", c.CacheHits)
	m.Set("ssdtp_ftl_cache_read_hits_total", c.CacheReadHits)
	m.Set("ssdtp_ftl_cache_evictions_total", c.CacheEvictions)
	m.Set("ssdtp_ftl_data_pages_programmed_total", c.DataPagesProgrammed)
	m.Set("ssdtp_ftl_gc_pages_programmed_total", c.GCPagesProgrammed)
	m.Set("ssdtp_ftl_map_pages_programmed_total", c.MapPagesProgrammed)
	m.Set("ssdtp_ftl_parity_pages_programmed_total", c.ParityPagesProgrammed)
	m.Set("ssdtp_ftl_pslc_pages_programmed_total", c.PSLCPagesProgrammed)
	m.Set("ssdtp_ftl_refresh_pages_programmed_total", c.RefreshPagesProgrammed)
	m.Set("ssdtp_ftl_pages_programmed_total", c.PagesProgrammed())
	m.Set("ssdtp_ftl_page_reads_total", c.PageReads)
	m.Set("ssdtp_ftl_gc_page_reads_total", c.GCPageReads)
	m.Set("ssdtp_ftl_mount_reads_total", c.MountReads)
	m.Set("ssdtp_ftl_scrub_reads_total", c.ScrubReads)
	m.Set("ssdtp_ftl_erases_total", c.Erases)
	m.Set("ssdtp_ftl_gc_runs_total", c.GCRuns)
	m.Set("ssdtp_ftl_gc_valid_sectors_moved_total", c.GCValidMoved)
	m.Set("ssdtp_ftl_padded_sectors_total", c.PaddedSectors)
	m.Set("ssdtp_ftl_uncorrectable_reads_total", c.UncorrectableReads)
	m.Set("ssdtp_ftl_grown_bad_blocks", c.GrownBadBlocks)
	m.Set("ssdtp_ftl_wear_level_relocations_total", c.WearLevelRelocations)
	m.Set("ssdtp_ftl_free_blocks", int64(d.fl.FreeBlocks()))
	m.Set("ssdtp_ftl_valid_sectors", d.fl.ValidSectors())
	for ch := 0; ch < d.cfg.Channels; ch++ {
		b := d.array.Bus(ch)
		pre := fmt.Sprintf("ssdtp_bus_ch%d", ch)
		m.Set(pre+"_busy_ns", int64(b.Utilization()))
		m.Set(pre+"_wait_ns", int64(b.WaitTime()))
		m.Set(pre+"_waits_total", b.Waits())
		for w := 0; w < d.cfg.ChipsPerChannel; w++ {
			cpre := fmt.Sprintf("%s_chip%d", pre, w)
			m.Set(cpre+"_die_busy_ns", int64(b.DieBusyTime(w)))
			m.Set(cpre+"_die_wait_ns", int64(b.DieWaitTime(w)))
		}
	}
}

// MemStats returns chunk-level memory accounting summed over the drive's
// COW-backed state: every chip's arrays plus the FTL's mapping tables. A
// freshly cloned drive reports all-shared (it owns nothing yet); OwnedBytes
// then grows with the clone's dirty set.
func (d *Device) MemStats() cow.Stats {
	var st cow.Stats
	for _, row := range d.array.chips {
		for _, c := range row {
			st.Add(c.MemStats())
		}
	}
	st.Add(d.fl.MemStats())
	if d.content != nil {
		st.Add(d.content.Stats())
	}
	return st
}

// VisitSharedChunks calls f for every chunk the drive shares with a sealed
// image, with a comparable identity for deduplicating image bytes across
// drives cloned from the same snapshot (see cow.Array.VisitShared).
func (d *Device) VisitSharedChunks(f func(id any, bytes int64)) {
	for _, row := range d.array.chips {
		for _, c := range row {
			c.VisitSharedChunks(f)
		}
	}
	d.fl.VisitSharedChunks(f)
	if d.content != nil {
		d.content.VisitShared(f)
	}
}
