// Package nand models ONFI-style NAND flash packages: geometry, timing,
// per-die state machines, and the physical constraints that shape FTL design
// (erase-before-program, in-order page programming within a block, die-level
// parallelism, multi-plane operations).
//
// A Chip executes operations and enforces flash semantics; the companion
// onfi package drives chips over a shared channel bus and accounts for
// transfer time. Chips optionally retain page payloads (sparse) so that
// file-system experiments can read back real data.
package nand

import (
	"errors"
	"fmt"
)

// Addr identifies one page (or, for erase, the block containing it) inside a
// single chip. All coordinates are zero-based.
type Addr struct {
	Die   int
	Plane int
	Block int
	Page  int
}

func (a Addr) String() string {
	return fmt.Sprintf("d%d.p%d.b%d.pg%d", a.Die, a.Plane, a.Block, a.Page)
}

// Geometry describes the physical layout of one NAND package.
type Geometry struct {
	Dies           int // dies (LUNs) per package
	Planes         int // planes per die
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       int // data bytes per page, excluding OOB
	OOBSize        int // spare bytes per page (modeled but not stored)
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.Dies <= 0, g.Planes <= 0, g.BlocksPerPlane <= 0, g.PagesPerBlock <= 0:
		return errors.New("nand: all geometry counts must be positive")
	case g.PageSize <= 0:
		return errors.New("nand: page size must be positive")
	case g.OOBSize < 0:
		return errors.New("nand: OOB size must be non-negative")
	}
	return nil
}

// PagesPerPlane returns pages in one plane.
func (g Geometry) PagesPerPlane() int64 {
	return int64(g.BlocksPerPlane) * int64(g.PagesPerBlock)
}

// PagesPerDie returns pages in one die.
func (g Geometry) PagesPerDie() int64 {
	return g.PagesPerPlane() * int64(g.Planes)
}

// Pages returns the total page count of the package.
func (g Geometry) Pages() int64 {
	return g.PagesPerDie() * int64(g.Dies)
}

// Blocks returns the total block count of the package.
func (g Geometry) Blocks() int64 {
	return int64(g.Dies) * int64(g.Planes) * int64(g.BlocksPerPlane)
}

// PageIndex maps an address to a dense linear page index within the package.
// The layout is die-major: ((die*planes+plane)*blocksPerPlane+block)*pagesPerBlock+page.
func (g Geometry) PageIndex(a Addr) int64 {
	return ((int64(a.Die)*int64(g.Planes)+int64(a.Plane))*int64(g.BlocksPerPlane)+
		int64(a.Block))*int64(g.PagesPerBlock) + int64(a.Page)
}

// AddrOf inverts PageIndex.
func (g Geometry) AddrOf(idx int64) Addr {
	page := int(idx % int64(g.PagesPerBlock))
	idx /= int64(g.PagesPerBlock)
	block := int(idx % int64(g.BlocksPerPlane))
	idx /= int64(g.BlocksPerPlane)
	plane := int(idx % int64(g.Planes))
	idx /= int64(g.Planes)
	return Addr{Die: int(idx), Plane: plane, Block: block, Page: page}
}

// BlockIndex maps an address to a dense linear block index within the package.
func (g Geometry) BlockIndex(a Addr) int64 {
	return (int64(a.Die)*int64(g.Planes)+int64(a.Plane))*int64(g.BlocksPerPlane) + int64(a.Block)
}

// BlockAddrOf inverts BlockIndex (the returned Page is 0).
func (g Geometry) BlockAddrOf(idx int64) Addr {
	block := int(idx % int64(g.BlocksPerPlane))
	idx /= int64(g.BlocksPerPlane)
	plane := int(idx % int64(g.Planes))
	idx /= int64(g.Planes)
	return Addr{Die: int(idx), Plane: plane, Block: block}
}

// Contains reports whether a names a valid page in this geometry.
func (g Geometry) Contains(a Addr) bool {
	return a.Die >= 0 && a.Die < g.Dies &&
		a.Plane >= 0 && a.Plane < g.Planes &&
		a.Block >= 0 && a.Block < g.BlocksPerPlane &&
		a.Page >= 0 && a.Page < g.PagesPerBlock
}

// RowAddress encodes the ONFI row address (die/plane/block/page) used in
// address cycles on the bus. The column address is carried separately.
func (g Geometry) RowAddress(a Addr) uint32 {
	return uint32(g.PageIndex(a))
}
