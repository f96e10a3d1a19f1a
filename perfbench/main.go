// Command perfbench is the repository's performance benchmark. It runs one
// workload in-process through the simulator's public packages, checks every
// simulated output — each timed rep against the warm-up rep, and the warm-up
// rep against the fingerprints pinned in pinned.json — and prints one JSON
// result line last on stdout.
//
// With -trace 0 the result carries the end-to-end metrics of BENCHMARK.json.
// With -trace 1 it carries the per-layer ledger instead: benchmark-side spans
// and engine hooks around each layer's public calls, the cost of each layer
// driven alone, and a CPU profile folded by package beside the ledger.
//
// Build and run it from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload drive-gc-write --seed 42 --seconds 30 --trace 0
//
// -workload all runs every workload, each in its own process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"ssdtp/internal/ssd"
)

// defaultSeed is cmd/reproduce's default seed; pinned.json always covers it.
const defaultSeed = 42

// bench is one workload's simulation, split into the phases the benchmark
// times separately.
type bench interface {
	// setup builds the workload's preconditioned state from scratch; reps
	// restore from the last build. It is timed as setup_s. l is non-nil only
	// in the traced run.
	setup(l *ledger) error
	// rep runs one rep: untimed preparation, the measured work handed to
	// timed — in one call, or in one call per part where the work is a
	// fixed list of parts — then the output check.
	rep(m mode, l *ledger, timed func(work func())) (outcome, error)
	// iso returns a drive model of the workload and a drained image of it,
	// for the measurements of each layer alone.
	iso() (ssd.Config, *ssd.DeviceState, error)
}

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	name string
	// setupReps is how many times set-up is built and timed: enough that
	// the builds take a second or more, spread over the run.
	setupReps int
	// layer is the layer whose public calls the traced run wraps in spans.
	layer string
	make  func(seed int64) bench
}

var workloads = []workloadSpec{
	{name: "drive-gc-write", setupReps: 7, layer: "ssd", make: newDriveGCWrite},
	{name: "fleet-256", setupReps: 9, layer: "fleet", make: newFleetBench},
	{name: "paper-quick", setupReps: 3, layer: "runner", make: newPaperBench},
}

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := flag.Int64("seed", defaultSeed, "workload seed; every input is a pure function of it")
	seconds := flag.Int("seconds", 15, "host seconds of timed reps")
	trace := flag.Int("trace", 0, "0 measures the end-to-end metrics; 1 runs the per-layer ledger")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for the traced run's CPU profile and span dump")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(names, *seed, *seconds, *trace, *out))
	}
	var w *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s, or all)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	// The simulation engine is single-threaded by design, so a second P only
	// adds scheduling noise to a simulation; paper-quick's runner pool has a
	// single worker for the same reason.
	runtime.GOMAXPROCS(1)
	// At the default GC percent a collection started inside most timed reps
	// and wall_s spread up to 45 % between the quartiles of one process. A
	// rep allocates less than four times the live heap on every workload but
	// paper-quick, so at this percent the forced GCs between reps do nearly
	// all the collecting, outside the timed region.
	debug.SetGCPercent(400)
	var rep report
	var err error
	if *trace == 1 {
		rep, err = runLedger(*w, *seed, float64(*seconds), *out)
	} else {
		rep, err = runEndToEnd(*w, *seed, float64(*seconds))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in its own process, so none inherits another's
// heap or GOMAXPROCS, and returns the exit code.
func runAll(names []string, seed int64, seconds, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, n := range names {
		fmt.Printf("== %s\n", n)
		cmd := exec.Command(self, "-workload", n, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			code = 1
		}
	}
	return code
}
