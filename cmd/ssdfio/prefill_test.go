package main

import (
	"strings"
	"testing"

	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

// lossyDrive loses the completion of its third write, so a prefill pass
// through it completes fewer requests than it issues.
type lossyDrive struct {
	*ssd.Device
	writes int
}

func (d *lossyDrive) WriteAsync(off int64, data []byte, length int64, done func()) error {
	if d.writes++; d.writes == 3 {
		done = nil
	}
	return d.Device.WriteAsync(off, data, length, done)
}

// A short prefill pass is an error naming the model and both request
// counts; a full pass is not.
func TestPrefillShortPassIsError(t *testing.T) {
	err := prefillDevice(&lossyDrive{Device: ssd.NewDevice(sim.NewEngine(), ssd.S64())})
	if err == nil || !strings.HasPrefix(err.Error(), "S64 prefill completed 2 of ") {
		t.Fatalf("short prefill: err %v, want \"S64 prefill completed 2 of N requests\"", err)
	}
	if err := prefillDevice(ssd.NewDevice(sim.NewEngine(), ssd.S64())); err != nil {
		t.Fatalf("full prefill: %v", err)
	}
}
