// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each experiment is a
// pure function from a seed (and a Scale) to a result struct that knows how
// to render itself as the paper's rows/series; cmd/reproduce prints them and
// the repository's benchmarks time them.
//
// The grid-shaped experiments (fig1, fig2, fig3/tabS1, fig4a, tabS3, tabS4,
// tabS5, tabS7) are matrices of independent simulations. They express their
// cells through internal/runner and fan out across the pool installed with
// SetPool; each cell builds its own sim.Engine and device, so cells share
// no mutable state and the assembled result — and hence every rendered
// table — is byte-identical for any worker count.
package experiments

import (
	"sync/atomic"

	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
)

// cellPool holds the orchestrator grid experiments fan out on. The default
// (nil) runs cells serially, preserving the historical behaviour for
// library callers; cmd/reproduce and the benchmarks install a parallel
// pool.
var cellPool atomic.Pointer[runner.Pool]

// SetPool installs the worker pool used by the grid-shaped experiments.
// Passing nil restores serial execution. Results do not depend on the pool:
// per-cell seeds are pure functions of the experiment seed, so any worker
// count reproduces the serial output bit-for-bit.
func SetPool(p *runner.Pool) { cellPool.Store(p) }

// pool returns the installed pool (possibly nil, meaning serial).
func pool() *runner.Pool { return cellPool.Load() }

// observerCol holds the collector the traced experiments report to. Nil (the
// default) disables tracing at zero cost: cells receive a nil tracer and
// every instrumentation site reduces to one pointer check.
var observerCol atomic.Pointer[obs.Collector]

// SetObserver installs a collector that receives per-cell trace spans,
// metric snapshots and log-page rows from the traced experiments (fig3,
// fleet, transparency, tabS3, tabS4). Like SetPool, it does not affect
// results: spans and rows are timestamped with each cell's simulated clock
// and keyed by cell label, so the collected streams are byte-identical for
// any worker count. Passing nil disables tracing.
func SetObserver(col *obs.Collector) { observerCol.Store(col) }

// observer returns the installed collector (possibly nil).
func observer() *obs.Collector { return observerCol.Load() }

// Scale trades fidelity for runtime. Full is what EXPERIMENTS.md reports;
// Quick is for benchmarks and smoke tests.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// pick returns q under Quick, f under Full.
func (s Scale) pick(q, f int64) int64 {
	if s == Quick {
		return q
	}
	return f
}
