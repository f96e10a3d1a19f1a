package main

import (
	"math"
	"testing"
)

func TestCheckDump(t *testing.T) {
	cases := []struct {
		addr  uint64
		count int
		ok    bool
	}{
		{0x20000000, 16, true},
		{0, 1, true},
		{0xfffffffc, 1, true},
		{0xfffffff0, 4, true},
		{0, 0, false},
		{0, -1, false},
		{0xfffffffc, 2, false},
		{0xfffffff0, 5, false},
		{0, 1<<30 + 1, false},
		{0, math.MaxInt, false},
	}
	for _, c := range cases {
		if err := checkDump(c.addr, c.count); (err == nil) != c.ok {
			t.Errorf("checkDump(%#x, %d) = %v, want ok=%v", c.addr, c.count, err, c.ok)
		}
	}
}
