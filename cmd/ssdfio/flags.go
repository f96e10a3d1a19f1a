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
	qd         int   // -qd
	ms         int64 // -ms
	readFrac   float64
	intervalUS int64
	fleet      int   // -fleet tier size; 0 = single device, -stripe-kb unused
	stripeKB   int64 // -stripe-kb
}

// check rejects values the simulator cannot run. Each would otherwise panic
// deep inside a run or be accepted silently. It returns the flag at fault
// and why, or "" and nil.
func (w workloadFlags) check() (string, error) {
	switch {
	case w.size <= 0 || w.size%w.sector != 0:
		return "size", fmt.Errorf("request size %d is not a positive multiple of the %d-byte sector", w.size, w.sector)
	case w.qd < 1:
		return "qd", fmt.Errorf("queue depth %d must be at least 1", w.qd)
	case w.ms <= 0 || w.ms > math.MaxInt64/int64(sim.Millisecond):
		return "ms", fmt.Errorf("run length %d ms must be positive and fit the simulated clock", w.ms)
	case !(w.readFrac >= 0 && w.readFrac <= 1):
		return "read", fmt.Errorf("read fraction %v is outside 0..1", w.readFrac)
	case w.intervalUS < 0 || w.intervalUS > math.MaxInt64/int64(sim.Microsecond):
		return "interval-us", fmt.Errorf("issue interval %d µs must not be negative and must fit the simulated clock", w.intervalUS)
	case w.fleet < 0 || w.fleet > maxFleetDrives:
		return "fleet", fmt.Errorf("tier size %d out of range [1, %d] (see README: fleet scaling envelope)", w.fleet, maxFleetDrives)
	case w.fleet > 0 && (w.stripeKB <= 0 || w.stripeKB > math.MaxInt64/1024 || w.stripeKB*1024%int64(w.sector) != 0):
		return "stripe-kb", fmt.Errorf("stripe %d KiB is not a positive multiple of the %d-byte sector", w.stripeKB, w.sector)
	}
	return "", nil
}

// checkFits rejects a -size larger than the target the workload runs
// against: the device in single-drive mode, a tenant volume in fleet mode.
// The target's size is known only once the model is built, so check cannot
// see it.
func checkFits(size int, target string, targetBytes int64) error {
	if int64(size) > targetBytes {
		return fmt.Errorf("request size %d exceeds the %d-byte %s", size, targetBytes, target)
	}
	return nil
}
