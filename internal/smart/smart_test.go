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

// A host diffs two reads of a counter to get what happened between them.
func TestSnapshotDelta(t *testing.T) {
	tb := NewTable()
	tb.Define(AttrHostProgramPageCount, "host")
	tb.Define(AttrFTLProgramPageCount, "ftl")
	tb.Add(AttrHostProgramPageCount, 10)
	hostBefore, ftlBefore := tb.Value(AttrHostProgramPageCount), tb.Value(AttrFTLProgramPageCount)
	tb.Add(AttrHostProgramPageCount, 15)
	tb.Add(AttrFTLProgramPageCount, 4)
	host := tb.Value(AttrHostProgramPageCount) - hostBefore
	ftl := tb.Value(AttrFTLProgramPageCount) - ftlBefore
	if host != 15 || ftl != 4 {
		t.Errorf("delta host=%d ftl=%d, want 15/4", host, ftl)
	}
}

// A read value is the host's copy: later adds change the next read, not it.
func TestSnapshotIsCopy(t *testing.T) {
	tb := NewTable()
	tb.Add(1, 1)
	before := tb.Value(1)
	tb.Add(1, 100)
	if before != 1 || tb.Value(1) != 101 {
		t.Errorf("reads %d then %d, want 1 then 101", before, tb.Value(1))
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

// Property: for any sequence of adds, the delta of two reads equals the sum
// of adds between them.
func TestDeltaAdditiveProperty(t *testing.T) {
	f := func(first, second []int8) bool {
		tb := NewTable()
		var sum1 int64
		for _, v := range first {
			tb.Add(7, int64(v))
			sum1 += int64(v)
		}
		v1 := tb.Value(7)
		var sum2 int64
		for _, v := range second {
			tb.Add(7, int64(v))
			sum2 += int64(v)
		}
		v2 := tb.Value(7)
		return v1 == sum1 && v2-v1 == sum2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
