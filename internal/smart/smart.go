// Package smart models the S.M.A.R.T. attribute surface that the paper's
// black-box analysis (§2.2) consumes. The Crucial MX500 is unusual in
// exposing fine-grained write counters — "Host Program Page Count" and "FTL
// Program Page Count", both in opaque "NAND Pages" units — and the whole
// point of Figure 4 is what can (and cannot) be inferred from them.
package smart

import (
	"fmt"
	"sort"
	"strings"
)

// AttrID is a S.M.A.R.T. attribute identifier.
type AttrID uint8

// Attribute IDs matching the smartmontools drivedb entries for the drives
// modeled in this repository.
const (
	// AttrTotalHostSectorWrites is Crucial/Micron attribute 246.
	AttrTotalHostSectorWrites AttrID = 246
	// AttrHostProgramPageCount is Crucial/Micron attribute 247, measured in
	// "NAND Pages" per the drive documentation.
	AttrHostProgramPageCount AttrID = 247
	// AttrFTLProgramPageCount is Crucial/Micron attribute 248.
	AttrFTLProgramPageCount AttrID = 248
	// AttrWearLevelingCount is attribute 177 (Samsung).
	AttrWearLevelingCount AttrID = 177
	// AttrTotalLBAsWritten is attribute 241.
	AttrTotalLBAsWritten AttrID = 241
	// AttrPowerOnHours is attribute 9.
	AttrPowerOnHours AttrID = 9
)

// Attribute is one S.M.A.R.T. counter.
type Attribute struct {
	ID    AttrID
	Name  string
	Value int64
}

// Table is a device's attribute set. The zero value is not usable; create
// with NewTable.
type Table struct {
	attrs map[AttrID]*Attribute
}

// NewTable returns an empty attribute table.
func NewTable() *Table {
	return &Table{attrs: make(map[AttrID]*Attribute)}
}

// Define registers an attribute. Redefinition resets its value to zero.
func (t *Table) Define(id AttrID, name string) {
	t.attrs[id] = &Attribute{ID: id, Name: name}
}

// Add increments an attribute by delta. Adding to an undefined attribute
// defines it with an empty name, mirroring how vendor counters appear on
// real drives without drivedb entries.
func (t *Table) Add(id AttrID, delta int64) {
	a, ok := t.attrs[id]
	if !ok {
		a = &Attribute{ID: id}
		t.attrs[id] = a
	}
	a.Value += delta
}

// Set assigns an attribute's value directly.
func (t *Table) Set(id AttrID, v int64) {
	a, ok := t.attrs[id]
	if !ok {
		a = &Attribute{ID: id}
		t.attrs[id] = a
	}
	a.Value = v
}

// Value returns the current value (0 if undefined).
func (t *Table) Value(id AttrID) int64 {
	if a, ok := t.attrs[id]; ok {
		return a.Value
	}
	return 0
}

// String renders the table sorted by attribute ID, smartctl-style.
func (t *Table) String() string {
	ids := make([]AttrID, 0, len(t.attrs))
	for id := range t.attrs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, id := range ids {
		a := t.attrs[id]
		fmt.Fprintf(&b, "%3d %-28s %d\n", a.ID, a.Name, a.Value)
	}
	return b.String()
}
