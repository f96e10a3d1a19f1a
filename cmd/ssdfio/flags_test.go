package main

import (
	"math"
	"testing"
)

func TestWorkloadFlagsCheck(t *testing.T) {
	ok := workloadFlags{size: 4096, sector: 4096, ms: 500, fleet: true, stripeKB: 256}
	cases := []struct {
		name string
		edit func(*workloadFlags)
		flag string // "" = accepted
	}{
		{"defaults", func(*workloadFlags) {}, ""},
		{"read and open loop", func(w *workloadFlags) { w.readFrac, w.intervalUS = 1, 50 }, ""},
		{"stripe ignored outside fleet", func(w *workloadFlags) { w.fleet, w.stripeKB = false, 0 }, ""},
		{"size 0", func(w *workloadFlags) { w.size = 0 }, "size"},
		{"size unaligned", func(w *workloadFlags) { w.size = 1000 }, "size"},
		{"size negative", func(w *workloadFlags) { w.size = -4096 }, "size"},
		{"ms 0", func(w *workloadFlags) { w.ms = 0 }, "ms"},
		{"ms -1", func(w *workloadFlags) { w.ms = -1 }, "ms"},
		{"ms overflows clock", func(w *workloadFlags) { w.ms = math.MaxInt64 }, "ms"},
		{"read 2", func(w *workloadFlags) { w.readFrac = 2 }, "read"},
		{"read -0.5", func(w *workloadFlags) { w.readFrac = -0.5 }, "read"},
		{"read NaN", func(w *workloadFlags) { w.readFrac = math.NaN() }, "read"},
		{"interval -5", func(w *workloadFlags) { w.intervalUS = -5 }, "interval-us"},
		{"interval overflows clock", func(w *workloadFlags) { w.intervalUS = math.MaxInt64 }, "interval-us"},
		{"stripe 0", func(w *workloadFlags) { w.stripeKB = 0 }, "stripe-kb"},
		{"stripe below sector", func(w *workloadFlags) { w.stripeKB = 1 }, "stripe-kb"},
		{"stripe overflows", func(w *workloadFlags) { w.stripeKB = math.MaxInt64 }, "stripe-kb"},
	}
	for _, c := range cases {
		w := ok
		c.edit(&w)
		flag, err := w.check()
		if flag != c.flag || (err != nil) != (c.flag != "") {
			t.Errorf("%s: check() = %q, %v; want flag %q", c.name, flag, err, c.flag)
		}
	}
}
