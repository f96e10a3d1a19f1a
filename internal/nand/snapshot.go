package nand

import (
	"ssdtp/internal/bitset"
	"ssdtp/internal/cow"
)

// ChipState is a sealed, immutable image of a Chip's mutable state: program
// cursors, erase/read-disturb counters, program-time birth stamps, stored
// payloads, operation statistics, the maximum erase count, and factory-bad
// marks. The bulk arrays are cow.Images — Snapshot marks the source chip's
// chunks shared and aliases them here (O(chunks), no element copies), and
// Restore aliases them into the target, which copies a chunk only when it
// first writes it. A ChipState is never written after construction, so any
// number of chips may restore from it concurrently.
type ChipState struct {
	geom       Geometry
	cursor     cow.Image[int]
	erases     cow.Image[int]
	reads      cow.Image[int]
	birth      cow.Image[int64]
	hasBirth   bool
	data       cow.Image[byte]
	hasData    bool
	stats      Stats
	maxErase   int
	factoryBad bitset.Set
}

// Snapshot seals the chip's mutable state as an immutable image. The chip
// keeps reading its chunks in place and copies one only on its next write to
// it. The chip's configuration (geometry, reliability model, wear limit) is
// not captured: Restore requires an identically configured chip and panics
// otherwise.
func (c *Chip) Snapshot() *ChipState {
	s := &ChipState{
		geom:       c.geom,
		cursor:     c.cursor.Snapshot(),
		erases:     c.erases.Snapshot(),
		reads:      c.reads.Snapshot(),
		stats:      c.stats,
		maxErase:   c.maxErase,
		factoryBad: c.factoryBad.Clone(),
	}
	if c.birth != nil {
		s.birth = c.birth.Snapshot()
		s.hasBirth = true
	}
	if c.data != nil {
		s.data = c.data.arr.Snapshot()
		s.hasData = true
	}
	return s
}

// Share points the image's array chunks at prev's wherever they hold the
// same bytes (cow.Image.Share), so two sealed images of like chips keep one
// copy of what they have in common. Share rewrites s's chunk tables, so
// nothing may restore from s while it runs.
func (s *ChipState) Share(prev *ChipState) {
	s.cursor.Share(prev.cursor)
	s.erases.Share(prev.erases)
	s.reads.Share(prev.reads)
	s.birth.Share(prev.birth)
	s.data.Share(prev.data)
}

// Restore overwrites the chip's mutable state with a sealed image by
// aliasing its chunks; the chip copies a chunk only on first write. The
// image is only read, so concurrent restores from one ChipState are safe.
// Panics on geometry or configuration mismatch (birth/data presence must
// agree — those depend only on config).
func (c *Chip) Restore(s *ChipState) {
	if c.geom != s.geom {
		panic("nand: Restore geometry mismatch")
	}
	if (c.birth != nil) != s.hasBirth || (c.data != nil) != s.hasData {
		panic("nand: Restore config mismatch (Reliability/StoreData)")
	}
	c.cursor.Restore(s.cursor)
	c.erases.Restore(s.erases)
	c.reads.Restore(s.reads)
	if c.birth != nil {
		c.birth.Restore(s.birth)
	}
	if c.data != nil {
		c.data.arr.Restore(s.data)
	}
	c.stats = s.stats
	c.maxErase = s.maxErase
	c.factoryBad.CopyFrom(&s.factoryBad)
}
