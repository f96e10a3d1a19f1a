package smart

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefineAddValue(t *testing.T) {
	tb := NewTable()
	tb.Define(AttrHostProgramPageCount, "Host_Program_Page_Count")
	tb.Add(AttrHostProgramPageCount, 5)
	tb.Add(AttrHostProgramPageCount, 3)
	if got := tb.Value(AttrHostProgramPageCount); got != 8 {
		t.Errorf("Value = %d, want 8", got)
	}
}

func TestAddUndefinedDefines(t *testing.T) {
	tb := NewTable()
	tb.Add(99, 7)
	if got := tb.Value(99); got != 7 {
		t.Errorf("Value = %d, want 7", got)
	}
}

func TestSetOverrides(t *testing.T) {
	tb := NewTable()
	tb.Set(AttrPowerOnHours, 100)
	tb.Set(AttrPowerOnHours, 42)
	if got := tb.Value(AttrPowerOnHours); got != 42 {
		t.Errorf("Value = %d, want 42", got)
	}
}

func TestValueUndefinedIsZero(t *testing.T) {
	if NewTable().Value(1) != 0 {
		t.Error("undefined attribute should read 0")
	}
}

func TestSnapshotDelta(t *testing.T) {
	tb := NewTable()
	tb.Define(AttrHostProgramPageCount, "host")
	tb.Define(AttrFTLProgramPageCount, "ftl")
	tb.Add(AttrHostProgramPageCount, 10)
	before := tb.Snapshot()
	tb.Add(AttrHostProgramPageCount, 15)
	tb.Add(AttrFTLProgramPageCount, 4)
	after := tb.Snapshot()
	host := after[AttrHostProgramPageCount] - before[AttrHostProgramPageCount]
	ftl := after[AttrFTLProgramPageCount] - before[AttrFTLProgramPageCount]
	if host != 15 || ftl != 4 {
		t.Errorf("delta host=%d ftl=%d, want 15/4", host, ftl)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	tb := NewTable()
	tb.Add(1, 1)
	s := tb.Snapshot()
	tb.Add(1, 100)
	if s[1] != 1 {
		t.Error("snapshot mutated by later Add")
	}
}

func TestStringSortedByID(t *testing.T) {
	tb := NewTable()
	tb.Define(AttrFTLProgramPageCount, "FTL_Program_Page_Count")
	tb.Define(AttrPowerOnHours, "Power_On_Hours")
	s := tb.String()
	if strings.Index(s, "Power_On_Hours") > strings.Index(s, "FTL_Program_Page_Count") {
		t.Errorf("attributes not sorted by ID:\n%s", s)
	}
}

// Property: for any sequence of adds, snapshot delta equals the sum of adds
// between the snapshots.
func TestDeltaAdditiveProperty(t *testing.T) {
	f := func(first, second []int8) bool {
		tb := NewTable()
		var sum1 int64
		for _, v := range first {
			tb.Add(7, int64(v))
			sum1 += int64(v)
		}
		s1 := tb.Snapshot()
		var sum2 int64
		for _, v := range second {
			tb.Add(7, int64(v))
			sum2 += int64(v)
		}
		s2 := tb.Snapshot()
		return s1[7] == sum1 && s2[7]-s1[7] == sum2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
