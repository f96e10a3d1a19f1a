// Package telemetry implements the transparency log page the paper's §4
// prescribes: a host-queryable, windowed disclosure of the device-internal
// state that explains and predicts SSD performance — true write
// amplification, garbage-collection activity and victim quality, free-block
// slack against the GC reserve, write-cache pressure, channel utilization,
// and background-work debt. Where the obs package is simulator-side
// instrumentation no real host could see, a telemetry Page contains only
// fields a vendor could expose through a log page or extended SMART, sampled
// at aligned simulated-clock boundaries so the stream is deterministic at any
// worker count.
//
// The package sits below ssd/fleet (both fill pages) and obs (whose tracer
// records each traced cell's pages once, and whose collector renders them as
// the -telemetry JSONL and the -timeline CSV), and depends only on sim.
package telemetry

import (
	"strconv"
	"strings"
	"unicode/utf8"

	"ssdtp/internal/sim"
)

// Page is one transparency log page: a snapshot of disclosed device state.
// Counter fields are cumulative since device construction — consumers diff
// consecutive rows for in-window rates (e.g. windowed WAF = Δpages_programmed
// / Δhost_pages_programmed). Gauge fields (marked) are instantaneous.
// Drives counts the devices aggregated into the page: 1 for a single drive,
// more after Accumulate folds a fleet or tenant drive set together.
type Page struct {
	Drives int64 `json:"drives"`

	// Host-visible traffic.
	HostSectorsWritten int64 `json:"host_sectors_written"`
	HostSectorsRead    int64 `json:"host_sectors_read"`

	// Write amplification: host-attributed vs total NAND programs.
	HostPagesProgrammed int64 `json:"host_pages_programmed"`
	PagesProgrammed     int64 `json:"pages_programmed"`

	// Garbage collection.
	GCPagesProgrammed int64 `json:"gc_pages_programmed"`
	GCPageReads       int64 `json:"gc_page_reads"`
	GCRuns            int64 `json:"gc_runs"`
	Erases            int64 `json:"erases"`
	ActiveGCUnits     int64 `json:"active_gc_units"`     // gauge: PUs collecting now
	GCVictimValidPPM  int64 `json:"gc_victim_valid_ppm"` // gauge: valid fraction of in-flight victims (ppm)

	// Free-space accounting.
	FreeBlocks      int64 `json:"free_blocks"`
	FreeBlocksMin   int64 `json:"free_blocks_min"`   // gauge: scarcest PU's free blocks
	GCReserveBlocks int64 `json:"gc_reserve_blocks"` // per-PU low-water mark GC defends

	// Write cache.
	CacheDirtyBytes int64 `json:"cache_dirty_bytes"` // gauge
	CacheCapBytes   int64 `json:"cache_cap_bytes"`

	// Outstanding work and channel pressure.
	QueueDepth int64 `json:"queue_depth"` // gauge: parked page-ops + admission stalls
	Channels   int64 `json:"channels"`
	BusBusyNS  int64 `json:"bus_busy_ns"`
	BusWaitNS  int64 `json:"bus_wait_ns"`

	// Background-work debt.
	ScrubReads             int64 `json:"scrub_reads"`
	RefreshPagesProgrammed int64 `json:"refresh_pages_programmed"`
	RefreshPending         int64 `json:"refresh_pending"` // gauge: blocks queued for refresh
}

// pageFields names the page columns in render order; it must match the json
// tags on Page field-for-field (pinned by a test).
var pageFields = [...]string{
	"drives",
	"host_sectors_written", "host_sectors_read",
	"host_pages_programmed", "pages_programmed",
	"gc_pages_programmed", "gc_page_reads", "gc_runs", "erases",
	"active_gc_units", "gc_victim_valid_ppm",
	"free_blocks", "free_blocks_min", "gc_reserve_blocks",
	"cache_dirty_bytes", "cache_cap_bytes",
	"queue_depth", "channels", "bus_busy_ns", "bus_wait_ns",
	"scrub_reads", "refresh_pages_programmed", "refresh_pending",
}

// values returns the page's fields in pageFields order.
func (p *Page) values() [len(pageFields)]int64 {
	return [...]int64{
		p.Drives,
		p.HostSectorsWritten, p.HostSectorsRead,
		p.HostPagesProgrammed, p.PagesProgrammed,
		p.GCPagesProgrammed, p.GCPageReads, p.GCRuns, p.Erases,
		p.ActiveGCUnits, p.GCVictimValidPPM,
		p.FreeBlocks, p.FreeBlocksMin, p.GCReserveBlocks,
		p.CacheDirtyBytes, p.CacheCapBytes,
		p.QueueDepth, p.Channels, p.BusBusyNS, p.BusWaitNS,
		p.ScrubReads, p.RefreshPagesProgrammed, p.RefreshPending,
	}
}

// Accumulate folds q into p for fleet/tenant aggregation. Counters and most
// gauges sum; FreeBlocksMin takes the minimum (the scarcest PU anywhere in
// the set), GCReserveBlocks the maximum (the strictest reserve), and
// GCVictimValidPPM the maximum (the worst in-flight victim — the one whose
// collection costs the most). The first accumulation into a zero page copies.
func (p *Page) Accumulate(q *Page) {
	if p.Drives == 0 {
		*p = *q
		return
	}
	p.Drives += q.Drives
	p.HostSectorsWritten += q.HostSectorsWritten
	p.HostSectorsRead += q.HostSectorsRead
	p.HostPagesProgrammed += q.HostPagesProgrammed
	p.PagesProgrammed += q.PagesProgrammed
	p.GCPagesProgrammed += q.GCPagesProgrammed
	p.GCPageReads += q.GCPageReads
	p.GCRuns += q.GCRuns
	p.Erases += q.Erases
	p.ActiveGCUnits += q.ActiveGCUnits
	if q.GCVictimValidPPM > p.GCVictimValidPPM {
		p.GCVictimValidPPM = q.GCVictimValidPPM
	}
	p.FreeBlocks += q.FreeBlocks
	if q.FreeBlocksMin < p.FreeBlocksMin {
		p.FreeBlocksMin = q.FreeBlocksMin
	}
	if q.GCReserveBlocks > p.GCReserveBlocks {
		p.GCReserveBlocks = q.GCReserveBlocks
	}
	p.CacheDirtyBytes += q.CacheDirtyBytes
	p.CacheCapBytes += q.CacheCapBytes
	p.QueueDepth += q.QueueDepth
	p.Channels += q.Channels
	p.BusBusyNS += q.BusBusyNS
	p.BusWaitNS += q.BusWaitNS
	p.ScrubReads += q.ScrubReads
	p.RefreshPagesProgrammed += q.RefreshPagesProgrammed
	p.RefreshPending += q.RefreshPending
}

// Row is one streamed log-page sample: the page plus the aligned boundary
// timestamp it was captured at and the cell (drive or experiment) it belongs
// to. The json tags make Row directly decodable from the JSONL stream (the
// embedded Page's fields are promoted to the top level).
type Row struct {
	Cell string   `json:"cell"`
	T    sim.Time `json:"t"`
	Page
}

// appendRowJSON renders one row in the stream's fixed field order (hand
// rolled so the output is byte-identical across runs — encoding/json is used
// only for decoding).
func appendRowJSON(line []byte, cell string, t sim.Time, p *Page) []byte {
	line = append(line, `{"cell":`...)
	line = appendJSONString(line, cell)
	line = append(line, `,"t":`...)
	line = strconv.AppendInt(line, int64(t), 10)
	vals := p.values()
	for j, f := range pageFields {
		line = append(line, ',', '"')
		line = append(line, f...)
		line = append(line, '"', ':')
		line = strconv.AppendInt(line, vals[j], 10)
	}
	return append(line, '}', '\n')
}

// csvHeader is the CSV rendering's header line: the JSONL keys in order,
// with the timestamp column named for its unit.
var csvHeader = "cell,t_ns," + strings.Join(pageFields[:], ",") + "\n"

// appendRowCSV renders one row as a CSV line, the columns in csvHeader order.
func appendRowCSV(line []byte, cell string, t sim.Time, p *Page) []byte {
	line = appendJSONString(line, cell)
	line = append(line, ',')
	line = strconv.AppendInt(line, int64(t), 10)
	for _, v := range p.values() {
		line = append(line, ',')
		line = strconv.AppendInt(line, v, 10)
	}
	return append(line, '\n')
}

// appendJSONString quotes s as a JSON string (not strconv.Quote, whose \x
// escapes are Go syntax, not JSON). Cell labels are plain ASCII in practice;
// the escaping exists so arbitrary labels still produce a parseable stream.
func appendJSONString(line []byte, s string) []byte {
	const hex = "0123456789abcdef"
	line = append(line, '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			line = append(line, '\\', byte(r))
		case r < 0x20:
			line = append(line, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
		case r < utf8.RuneSelf:
			line = append(line, byte(r))
		default:
			line = utf8.AppendRune(line, r)
		}
	}
	return append(line, '"')
}
