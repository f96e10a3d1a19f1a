package main

import (
	"fmt"
	"math"

	"ssdtp/internal/sim"
)

// workloadFlags are the flag values that shape a run's requests.
type workloadFlags struct {
	size       int   // -size, bytes
	sector     int   // the model's logical sector size
	ms         int64 // -ms
	readFrac   float64
	intervalUS int64
	fleet      bool  // -fleet/-drives given: -stripe-kb applies
	stripeKB   int64 // -stripe-kb
}

// check rejects values the simulator cannot run. Each would otherwise panic
// deep inside a run or be accepted silently. It returns the flag at fault
// and why, or "" and nil.
func (w workloadFlags) check() (string, error) {
	switch {
	case w.size <= 0 || w.size%w.sector != 0:
		return "size", fmt.Errorf("request size %d is not a positive multiple of the %d-byte sector", w.size, w.sector)
	case w.ms <= 0 || w.ms > math.MaxInt64/int64(sim.Millisecond):
		return "ms", fmt.Errorf("run length %d ms must be positive and fit the simulated clock", w.ms)
	case !(w.readFrac >= 0 && w.readFrac <= 1):
		return "read", fmt.Errorf("read fraction %v is outside 0..1", w.readFrac)
	case w.intervalUS < 0 || w.intervalUS > math.MaxInt64/int64(sim.Microsecond):
		return "interval-us", fmt.Errorf("issue interval %d µs must not be negative and must fit the simulated clock", w.intervalUS)
	case w.fleet && (w.stripeKB <= 0 || w.stripeKB > math.MaxInt64/1024 || w.stripeKB*1024%int64(w.sector) != 0):
		return "stripe-kb", fmt.Errorf("stripe %d KiB is not a positive multiple of the %d-byte sector", w.stripeKB, w.sector)
	}
	return "", nil
}
