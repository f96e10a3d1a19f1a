package nand

import (
	"errors"
	"fmt"

	"ssdtp/internal/bitset"
	"ssdtp/internal/cow"
)

// Common flash-semantics errors.
var (
	ErrOutOfRange   = errors.New("nand: address out of range")
	ErrOverwrite    = errors.New("nand: program of non-erased page")
	ErrOutOfOrder   = errors.New("nand: pages must be programmed in order within a block")
	ErrWornOut      = errors.New("nand: block exceeded erase endurance")
	ErrSizeMismatch = errors.New("nand: data length does not match page size")
)

// PageState is the lifecycle state of a physical page.
type PageState uint8

// Page lifecycle states.
const (
	PageErased PageState = iota
	PageProgrammed
)

// Chunk lengths for the chip's COW metadata arrays (DESIGN.md §12). A
// per-page chunk covers 256 pages: 2 KiB of birth stamps when the
// reliability model keeps them. Pages are programmed in order within a
// block, so a clone's writes dirty few of them. A per-block chunk covers 64
// blocks, 512 B of each counter. A sweep of both at a quarter and four times
// these lengths moved no benchmark workload.
const (
	pageMetaChunk  = 256
	blockMetaChunk = 64
)

// Stats counts operations executed by a chip.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
}

// ChipConfig configures a Chip.
type ChipConfig struct {
	Geometry Geometry
	// StoreData retains programmed payloads (sparsely) so reads return the
	// written bytes. Off, reads of programmed pages return zeros; the state
	// machine and statistics still behave identically.
	StoreData bool
	// WearLimit, if positive, makes Erase fail with ErrWornOut once a block
	// reaches that many erases.
	WearLimit int
	// Reliability enables the raw bit-error model; it requires Clock.
	Reliability Reliability
	// Clock supplies simulated time for retention aging (typically the
	// engine's Now). Required when Reliability is enabled.
	Clock func() int64
	// ID is the chip's JEDEC identification, returned by READ ID; zero
	// value yields a generic ONFI signature.
	ID ChipID
}

// Chip is the logical state of one NAND package: per-block program cursors
// and erase counts, and (optionally) page payloads. A page is programmed
// exactly when it lies below its block's cursor: Program succeeds only at
// the cursor and advances it, and Erase resets it to 0. Chip is
// passive — it has no clock; the onfi.Bus sequences operations in simulated
// time and invokes these methods at commit points. All bulk state lives in
// copy-on-write chunked arrays so Snapshot/Restore alias chunks instead of
// copying the chip (see internal/cow and DESIGN.md §12).
type Chip struct {
	cfg        ChipConfig
	geom       Geometry
	cursor     *cow.Array[int]   // per block: next programmable page
	erases     *cow.Array[int]   // per block
	reads      *cow.Array[int]   // per block: reads since last erase (read disturb)
	birth      *cow.Array[int64] // per page: program time (reliability model)
	data       *pageStore        // nil unless StoreData
	stats      Stats
	factoryBad bitset.Set // by block index
}

// NewChip returns an all-erased chip. It panics on invalid geometry: chip
// construction happens at model-build time where a bad geometry is a
// programming error.
func NewChip(cfg ChipConfig) *Chip {
	if err := cfg.Geometry.Validate(); err != nil {
		panic(err)
	}
	g := cfg.Geometry
	if cfg.Reliability.Enabled() && cfg.Clock == nil {
		panic("nand: Reliability requires a Clock")
	}
	c := &Chip{
		cfg:    cfg,
		geom:   g,
		cursor: cow.NewArray[int](int64(g.Blocks()), blockMetaChunk, 0),
		erases: cow.NewArray[int](int64(g.Blocks()), blockMetaChunk, 0),
		reads:  cow.NewArray[int](int64(g.Blocks()), blockMetaChunk, 0),
	}
	if cfg.Reliability.Enabled() {
		c.birth = cow.NewArray[int64](g.Pages(), pageMetaChunk, 0)
	}
	if cfg.StoreData {
		c.data = newPageStore(g.PageSize, g.Pages())
	}
	return c
}

// MarkFactoryBad records a factory bad block: erase and program operations
// on it fail, as shipped-bad blocks do on real parts. No shipped model marks
// any; the ftl package's tests use it to inject a bad block and check
// retirement.
func (c *Chip) MarkFactoryBad(a Addr) {
	a.Page = 0
	if c.geom.Contains(a) {
		c.factoryBad.Set(c.geom.BlockIndex(a))
	}
}

// BitErrors returns the raw bit-error count a read of the page would see
// under the configured reliability model (0 when disabled or erased).
func (c *Chip) BitErrors(a Addr) int {
	if !c.cfg.Reliability.Enabled() || !c.geom.Contains(a) {
		return 0
	}
	blk := int64(c.geom.BlockIndex(a))
	if a.Page >= c.cursor.At(blk) {
		return 0
	}
	age := c.cfg.Clock() - c.birth.At(c.geom.PageIndex(a))
	return c.cfg.Reliability.BitErrorsRD(c.erases.At(blk), age, c.reads.At(blk))
}

// Geometry returns the chip's layout.
func (c *Chip) Geometry() Geometry { return c.geom }

// Stats returns a copy of the operation counters.
func (c *Chip) Stats() Stats { return c.stats }

// MemStats returns chunk-level memory accounting across the chip's COW
// arrays (payloads, per-block counters, birth stamps).
func (c *Chip) MemStats() cow.Stats {
	var st cow.Stats
	st.Add(c.cursor.Stats())
	st.Add(c.erases.Stats())
	st.Add(c.reads.Stats())
	if c.birth != nil {
		st.Add(c.birth.Stats())
	}
	if c.data != nil {
		st.Add(c.data.arr.Stats())
	}
	return st
}

// VisitSharedChunks calls f for every chunk the chip shares with an image,
// with a comparable identity for cross-drive deduplication (see
// cow.Array.VisitShared).
func (c *Chip) VisitSharedChunks(f func(id any, bytes int64)) {
	c.cursor.VisitShared(f)
	c.erases.VisitShared(f)
	c.reads.VisitShared(f)
	if c.birth != nil {
		c.birth.VisitShared(f)
	}
	if c.data != nil {
		c.data.arr.VisitShared(f)
	}
}

// State returns the lifecycle state of the addressed page.
func (c *Chip) State(a Addr) (PageState, error) {
	if !c.geom.Contains(a) {
		return 0, fmt.Errorf("%w: %v", ErrOutOfRange, a)
	}
	return c.pageState(a), nil
}

// pageState derives a page's lifecycle state from its block's program
// cursor (a must be in range).
func (c *Chip) pageState(a Addr) PageState {
	if a.Page < c.cursor.At(int64(c.geom.BlockIndex(a))) {
		return PageProgrammed
	}
	return PageErased
}

// EraseCount returns how many times the block containing a has been erased.
func (c *Chip) EraseCount(a Addr) int {
	if !c.geom.Contains(Addr{Die: a.Die, Plane: a.Plane, Block: a.Block}) {
		return 0
	}
	return c.erases.At(int64(c.geom.BlockIndex(a)))
}

// Program commits a page program. data must be exactly PageSize bytes (nil
// is allowed and programs zeros). Flash semantics enforced: the page must be
// erased, and pages within a block must be programmed in ascending order.
func (c *Chip) Program(a Addr, data []byte) error {
	if !c.geom.Contains(a) {
		return fmt.Errorf("%w: %v", ErrOutOfRange, a)
	}
	if data != nil && len(data) != c.geom.PageSize {
		return fmt.Errorf("%w: got %d, page size %d", ErrSizeMismatch, len(data), c.geom.PageSize)
	}
	blk := int64(c.geom.BlockIndex(a))
	cur := c.cursor.At(blk)
	if a.Page < cur {
		return fmt.Errorf("%w: %v", ErrOverwrite, a)
	}
	if c.factoryBad.Get(blk) {
		return fmt.Errorf("%w: %v (factory bad block)", ErrWornOut, a)
	}
	if a.Page != cur {
		return fmt.Errorf("%w: %v (next programmable page is %d)", ErrOutOfOrder, a, cur)
	}
	idx := c.geom.PageIndex(a)
	*c.cursor.Ptr(blk)++
	if c.birth != nil {
		c.birth.Set(idx, c.cfg.Clock())
	}
	if c.data != nil && data != nil {
		c.data.put(idx, data)
	}
	c.stats.Programs++
	return nil
}

// Read copies the addressed page into buf (which must be PageSize bytes, or
// nil to model a read whose payload the caller does not need). Reading an
// erased page yields 0xFF bytes, as real flash does.
func (c *Chip) Read(a Addr, buf []byte) error {
	if !c.geom.Contains(a) {
		return fmt.Errorf("%w: %v", ErrOutOfRange, a)
	}
	if buf != nil && len(buf) != c.geom.PageSize {
		return fmt.Errorf("%w: got %d, page size %d", ErrSizeMismatch, len(buf), c.geom.PageSize)
	}
	if buf != nil {
		idx := c.geom.PageIndex(a)
		if c.pageState(a) == PageErased {
			for i := range buf {
				buf[i] = 0xFF
			}
		} else if c.data != nil {
			c.data.read(idx, buf)
		} else {
			clear(buf)
		}
	}
	*c.reads.Ptr(int64(c.geom.BlockIndex(a)))++
	c.stats.Reads++
	return nil
}

// Erase commits a block erase (the Page field of a is ignored).
func (c *Chip) Erase(a Addr) error {
	a.Page = 0
	if !c.geom.Contains(a) {
		return fmt.Errorf("%w: %v", ErrOutOfRange, a)
	}
	blk := int64(c.geom.BlockIndex(a))
	if c.factoryBad.Get(blk) {
		return fmt.Errorf("%w: %v (factory bad block)", ErrWornOut, a)
	}
	if c.cfg.WearLimit > 0 && c.erases.At(blk) >= c.cfg.WearLimit {
		return fmt.Errorf("%w: block %v after %d erases", ErrWornOut, a, c.erases.At(blk))
	}
	if c.data != nil {
		c.data.zeroRange(c.geom.PageIndex(a), int64(c.geom.PagesPerBlock))
	}
	c.cursor.Set(blk, 0)
	*c.erases.Ptr(blk)++
	c.reads.Set(blk, 0)
	c.stats.Erases++
	return nil
}
