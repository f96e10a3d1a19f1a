package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when SSDFIO_RUN_MAIN is set, so tests can
// check what a flag does end to end in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("SSDFIO_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestWorkloadFlagsCheck(t *testing.T) {
	ok := workloadFlags{size: 4096, sector: 4096, qd: 1, ms: 500, fleet: 2, stripeKB: 256}
	cases := []struct {
		name string
		edit func(*workloadFlags)
		flag string // "" = accepted
	}{
		{"defaults", func(*workloadFlags) {}, ""},
		{"read and open loop", func(w *workloadFlags) { w.readFrac, w.intervalUS = 1, 50 }, ""},
		{"stripe ignored outside fleet", func(w *workloadFlags) { w.fleet, w.stripeKB = 0, 0 }, ""},
		{"fleet at the cap", func(w *workloadFlags) { w.fleet = maxFleetDrives }, ""},
		{"fleet -1", func(w *workloadFlags) { w.fleet = -1 }, "fleet"},
		{"fleet above the cap", func(w *workloadFlags) { w.fleet = maxFleetDrives + 1 }, "fleet"},
		{"size 0", func(w *workloadFlags) { w.size = 0 }, "size"},
		{"size unaligned", func(w *workloadFlags) { w.size = 1000 }, "size"},
		{"size negative", func(w *workloadFlags) { w.size = -4096 }, "size"},
		{"qd 0", func(w *workloadFlags) { w.qd = 0 }, "qd"},
		{"qd -1", func(w *workloadFlags) { w.qd = -1 }, "qd"},
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

// A -size larger than the workload's target is a -size flag error in both
// modes — the device in single-drive mode, a tenant volume in fleet mode —
// where it used to panic inside the workload generator.
func TestOversizeRequestIsFlagError(t *testing.T) {
	const tib = "1099511627776" // a sector multiple larger than any model
	for _, args := range [][]string{
		{"-size", tib, "-ms", "1"},
		{"-fleet", "2", "-size", tib, "-ms", "1"},
		{"-fleet", "2", "-prefill", "-size", tib, "-ms", "1"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "SSDFIO_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.HasPrefix(string(out), "-size: request size "+tib+" exceeds the ") {
			t.Errorf("ssdfio %s: %v, output %q; want exit 2 with a -size error", strings.Join(args, " "), err, out)
		}
	}
	if err := checkFits(4096, "device", 4096); err != nil {
		t.Errorf("a request as large as its target: %v", err)
	}
}
