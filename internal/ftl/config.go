// Package ftl implements a configurable flash translation layer over an
// abstract flash array. It provides exactly the design axes the paper varies
// in its MQSim-style fidelity experiment (§2.1, Figure 3) — garbage-collection
// victim selection (greedy vs randomized-greedy), write-cache designation
// (data vs mapping metadata), and page-allocation order (CWDP vs PDWC) — plus
// the mechanisms its black-box experiment exposes (§2.2, Figure 4): RAIN
// parity stripes, a coalescing write cache, and journal-style mapping-table
// persistence. A pseudo-SLC buffer matching the Samsung 840 EVO's TurboWrite
// (observed through JTAG in §3.2) is also available.
//
// The FTL is event-driven: all public operations are asynchronous and
// complete via callbacks on the shared sim.Engine, so host requests,
// cache flushes, garbage collection and map journaling genuinely contend
// for channel buses and die time. That contention — not modeled noise — is
// what produces the tail-latency spreads of Figure 3.
package ftl

import (
	"errors"
	"fmt"
	"math"

	"ssdtp/internal/nand"
	"ssdtp/internal/obs"
)

// GCPolicy selects the garbage-collection victim-selection algorithm.
type GCPolicy int

// Victim-selection policies (Van Houdt, SIGMETRICS'13 terminology, as cited
// by the paper).
const (
	// GCGreedy always picks the block with the fewest valid sectors.
	GCGreedy GCPolicy = iota
	// GCRandGreedy samples GCSample random candidate blocks and picks the
	// one with the fewest valid sectors ("randomized-greedy algorithm").
	GCRandGreedy
	// GCFIFO erases blocks in write order regardless of valid count
	// (cost-oblivious; the worst case, useful as an ablation baseline).
	GCFIFO
)

func (p GCPolicy) String() string {
	switch p {
	case GCGreedy:
		return "greedy"
	case GCRandGreedy:
		return "rand-greedy"
	case GCFIFO:
		return "fifo"
	default:
		return "?"
	}
}

// CacheKind selects what the on-board RAM cache is designated for — one of
// the three knobs of the paper's §2.1 experiment.
type CacheKind int

// Cache designations.
const (
	// CacheData uses the RAM as a coalescing write-back data cache: host
	// writes complete on cache admission and are flushed to flash in
	// page-sized batches. Mapping updates journal eagerly.
	CacheData CacheKind = iota
	// CacheMapping designates the RAM for mapping metadata: data writes
	// pass through only a small fixed staging buffer (a volatile FIFO the
	// controller always has), so bursts quickly hit flash-program
	// backpressure; map journaling is lazy in proportion to the cache
	// size.
	CacheMapping
	// CacheNone disables data buffering entirely: every write programs
	// flash before completing, with request-private coalescing only. An
	// ablation point, not a realistic drive.
	CacheNone
)

func (k CacheKind) String() string {
	switch k {
	case CacheData:
		return "data-cache"
	case CacheMapping:
		return "mapping-cache"
	case CacheNone:
		return "no-cache"
	default:
		return "?"
	}
}

// AllocOrder is a page-allocation scheme: the order in which the dimensions
// of the flash array are exhausted when striping consecutive pages
// (Tavakkol et al., TOMPECS'16, as cited by the paper). The first letter
// varies fastest.
type AllocOrder int

// Allocation orders. C=channel, W=way (chip on a channel), D=die, P=plane.
const (
	// AllocCWDP stripes consecutive pages across channels first: maximum
	// bus-level parallelism for small writes.
	AllocCWDP AllocOrder = iota
	// AllocPDWC exhausts planes, then dies, then ways before moving to the
	// next channel: consecutive small writes pile onto one channel.
	AllocPDWC
	// AllocWDPC and AllocDPCW complete the set for ablation studies.
	AllocWDPC
	AllocDPCW
)

func (o AllocOrder) String() string {
	switch o {
	case AllocCWDP:
		return "CWDP"
	case AllocPDWC:
		return "PDWC"
	case AllocWDPC:
		return "WDPC"
	case AllocDPCW:
		return "DPCW"
	default:
		return "?"
	}
}

// RAINConfig configures redundant-array-of-independent-NAND parity, the
// mechanism the paper credits for the MX500's ≈30 KB-per-NAND-page ratio
// (§2.2, Figure 4a).
type RAINConfig struct {
	// DataPages is the number of data pages per parity page. 0 disables
	// RAIN. The MX500 model uses 15 (15+1 stripes: 16·(15/16) = 30 KB of
	// host data per 32 KB counter unit).
	DataPages int
}

// Enabled reports whether parity is generated.
func (r RAINConfig) Enabled() bool { return r.DataPages > 0 }

// Config assembles one FTL design point.
type Config struct {
	// Geometry of each chip; all chips are identical.
	Geometry nand.Geometry
	// Channels and ChipsPerChannel define the array shape.
	Channels        int
	ChipsPerChannel int

	// SectorSize is the logical block size (the mapping granularity).
	SectorSize int

	// OverProvision is the fraction of physical capacity hidden from the
	// host (typically 0.07–0.28).
	OverProvision float64

	// GC selects the victim policy; GCSample is the candidate count for
	// GCRandGreedy (d in d-choices).
	GC       GCPolicy
	GCSample int
	// GCLowWater/GCHighWater are per-parallel-unit free-block thresholds:
	// GC starts when free blocks drop below low water and runs until high
	// water. Defaults 3/5: collection starts while the host can still
	// allocate, so foreground writes rarely starve for blocks.
	GCLowWater  int
	GCHighWater int

	// Cache designates the RAM cache and sizes it in bytes.
	Cache      CacheKind
	CacheBytes int

	// Alloc selects the page-allocation order.
	Alloc AllocOrder

	// RAIN configures parity striping.
	RAIN RAINConfig

	// PSLCBytes reserves a pseudo-SLC write buffer (840 EVO TurboWrite).
	// 0 disables it.
	PSLCBytes int

	// ECCBits is the correction strength per page: reads whose raw
	// bit-error count exceeds it are uncorrectable. 0 disables the check.
	ECCBits int
	// RefreshBits enables correct-and-refresh: pages read with at least
	// this many raw bit errors relocate, and idle time runs patrol reads.
	// 0 disables scrubbing.
	RefreshBits int

	// IdleGC enables opportunistic garbage collection after IdleDelay with
	// no host activity ("unpredictable background operations", §2.1).
	IdleGC    bool
	IdleDelay int64 // nanoseconds

	// MixStreams disables hot/cold stream separation: garbage-collected
	// (cold) data shares open blocks with fresh host writes instead of
	// using its own. An ablation knob — separation is the first-order
	// write-amplification optimization of the hot/cold literature the
	// paper cites ([39]-[42]).
	MixStreams bool

	// WearLevelThreshold enables static wear leveling: when the spread
	// between the most- and least-erased block of a parallel unit exceeds
	// this many erases, idle time relocates the coldest block's data so the
	// young block rejoins the rotation. 0 disables.
	WearLevelThreshold int

	// GCSuspend lets host reads suspend in-progress background programs
	// (relocation/refresh) instead of queueing behind them — ONFI
	// program-suspend, the mechanism behind preemptible-GC designs (Lee et
	// al., cited in §1) and a key lever a knowing host gets on an
	// open-channel device.
	GCSuspend bool

	// Seed feeds the FTL's private RNG (randomized-greedy sampling).
	Seed int64

	// Trace, when non-nil, receives background-operation events — GC victim
	// spans, cache evictions, map-journal page writes, scrub/refresh/retire
	// events — timestamped with the simulated clock. A nil tracer costs one
	// pointer check per event site.
	Trace *obs.Tracer
}

// Validation errors.
var (
	ErrBadConfig = errors.New("ftl: invalid configuration")
)

// withDefaults returns cfg with unset tunables given safe defaults.
func (cfg Config) withDefaults() Config {
	if cfg.SectorSize == 0 {
		cfg.SectorSize = 4096
	}
	if cfg.GCSample == 0 {
		cfg.GCSample = 8
	}
	if cfg.GCLowWater == 0 {
		cfg.GCLowWater = 3
	}
	if cfg.GCHighWater == 0 {
		cfg.GCHighWater = cfg.GCLowWater + 2
	}
	if cfg.IdleGC && cfg.IdleDelay == 0 {
		cfg.IdleDelay = 50 * 1000 * 1000 // 50 ms
	}
	return cfg
}

// Validate reports configuration errors.
func (cfg Config) Validate() error {
	if err := cfg.Geometry.Validate(); err != nil {
		return err
	}
	c := cfg.withDefaults()
	switch {
	case c.Channels <= 0 || c.ChipsPerChannel <= 0:
		return fmt.Errorf("%w: need positive channel/chip counts", ErrBadConfig)
	case c.Geometry.PageSize%c.SectorSize != 0:
		return fmt.Errorf("%w: page size %d not a multiple of sector size %d", ErrBadConfig, c.Geometry.PageSize, c.SectorSize)
	case c.Cache == CacheData && c.CacheBytes/c.SectorSize > maxCacheSectors:
		return fmt.Errorf("%w: write cache of %d sectors exceeds the %d the cache index can name",
			ErrBadConfig, c.CacheBytes/c.SectorSize, maxCacheSectors)
	case c.OverProvision < 0 || c.OverProvision >= 0.9:
		return fmt.Errorf("%w: over-provisioning %v out of range", ErrBadConfig, c.OverProvision)
	case c.GCLowWater < 2:
		return fmt.Errorf("%w: GC low water must be >= 2 (one block must remain for relocation)", ErrBadConfig)
	case c.GCHighWater <= c.GCLowWater:
		return fmt.Errorf("%w: GC high water must exceed low water", ErrBadConfig)
	case c.RAIN.DataPages < 0:
		return fmt.Errorf("%w: negative RAIN stripe", ErrBadConfig)
	case !fitsInt32(c.Channels, c.ChipsPerChannel, c.Geometry.Dies, c.Geometry.Planes,
		c.Geometry.BlocksPerPlane, c.Geometry.PagesPerBlock, c.Geometry.PageSize/c.SectorSize):
		return fmt.Errorf("%w: more than %d physical sectors, the most the 32-bit mapping tables address",
			ErrBadConfig, math.MaxInt32)
	}
	return nil
}

// fitsInt32 reports whether the product of the positive factors is at most
// math.MaxInt32, without overflowing on the way.
func fitsInt32(factors ...int) bool {
	p := 1
	for _, x := range factors {
		if x > math.MaxInt32/p {
			return false
		}
		p *= x
	}
	return true
}
