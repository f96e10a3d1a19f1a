package experiments

import (
	"fmt"
	"sync/atomic"

	"ssdtp/internal/fleet"
	"ssdtp/internal/ftl"
	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
	"ssdtp/internal/workload"
)

// The fleet experiment scales the paper's transparency argument from one
// drive to the population an operator actually runs: hundreds of drives
// behind a placement tier, shared by tenants that cannot see each other.
// §2.1's point — black-box devices hide the background work that shapes
// tails — compounds at fleet scale, because a tenant's p99.9 now depends on
// garbage collection triggered by *other tenants'* writes on shared drives.
// The experiment quantifies that as GC blast radius: the fraction of a
// tenant's tail latency charged to gc_stall on drives it shares, compared
// across placement policies that trade striping width for isolation.

// fleetTenants is the number of tenants sharing the simulated tier.
const fleetTenants = 4

// fleetStripe is the placement-tier striping unit.
const fleetStripe = 256 * 1024

// fleetDriveConfig returns one of the fleet's drive models. The fleet is
// deliberately heterogeneous — a real tier mixes purchase generations — so
// drives cycle through two models (different cache sizes and GC policies)
// at two preconditioned fill levels (different ages). Both models share the
// geometry of the fleet's smallest drive so volume sizing is uniform, and
// carry enough over-provisioning that the shrunken per-PU block count still
// leaves garbage collection reclaimable space at full fill.
func fleetDriveConfig(model int, seed int64) ssd.Config {
	cfg := ssd.MQSimBase()
	cfg.Channels = 2
	cfg.Geometry.BlocksPerPlane = 8
	cfg.FTL.OverProvision = 0.25
	cfg.FTL.Seed = seed
	if model == 0 {
		cfg.Name = "fleet-a"
	} else {
		cfg.Name = "fleet-b"
		cfg.FTL.CacheBytes = 1 << 20
		cfg.FTL.GC = ftl.GCRandGreedy
		cfg.FTL.GCSample = 4
	}
	return cfg
}

// fleetFillLevels are the preconditioned fill percentages drives cycle
// through — young (half full) and aged (the fig3-family steady state).
var fleetFillLevels = []int64{50, 85}

// fleetSpecs returns the tenants' traffic mix: an OLTP-style random writer,
// a streaming sequential writer, a skewed mixed reader/writer, and a
// read-mostly scanner. Seeds derive from the experiment seed per tenant, so
// the mix is reproducible and independent of placement policy.
func fleetSpecs(vols []*fleet.Volume, seed int64) []workload.Spec {
	mk := func(t int, s workload.Spec) workload.Spec {
		s.Name = vols[t].Name()
		s.Seed = runner.CellSeed(seed, uint64(1000+t))
		return s
	}
	return []workload.Spec{
		mk(0, workload.Spec{Pattern: workload.Uniform, RequestBytes: 4096, QueueDepth: 4}),
		mk(1, workload.Spec{Pattern: workload.Sequential, RequestBytes: 64 * 1024, QueueDepth: 8}),
		mk(2, workload.Spec{Pattern: workload.Hotspot, RequestBytes: 16384, QueueDepth: 4, ReadFrac: 0.5}),
		mk(3, workload.Spec{Pattern: workload.Uniform, RequestBytes: 16384, QueueDepth: 4, ReadFrac: 0.7}),
	}
}

// FleetTenant is one tenant's summary under one placement policy.
type FleetTenant struct {
	Policy string
	Report fleet.TenantReport
}

// FleetMem is one policy cell's resident-memory accounting.
type FleetMem struct {
	Policy string
	Report fleet.MemReport
}

// FleetTenantTelemetry is one tenant's end-of-run disclosed log page joined
// with its GC attribution, under one placement policy.
type FleetTenantTelemetry struct {
	Policy string
	Tel    fleet.TenantTelemetry
}

// FleetResult aggregates both placement policies' tenant reports.
type FleetResult struct {
	Drives  int
	Tenants []FleetTenant
	// Mem carries per-policy COW image accounting. It is reported by
	// MemLines, deliberately outside Table: the table is pinned byte-identical
	// between snapshot-cache on and off, while residency legitimately differs
	// (cache-off drives are built from scratch and share nothing).
	Mem []FleetMem
	// Telemetry joins each tenant's disclosed drive-set log page with its
	// blast-radius attribution (rendered by TelemetryLines).
	Telemetry []FleetTenantTelemetry
}

// Isolated counts the policy's tenants whose tail carries no shared-drive
// GC interference at all (blast radius zero) — the headline contrast:
// full-fleet striping exposes every tenant to every other tenant's garbage
// collection, while ring placement leaves some tenants untouched at the
// cost of concentrating the interference on the overlapping ones.
func (r FleetResult) Isolated(policy string) (isolated, total int) {
	for _, t := range r.Tenants {
		if t.Policy != policy {
			continue
		}
		total++
		if t.Report.BlastPPM == 0 {
			isolated++
		}
	}
	return isolated, total
}

// Table renders the per-tenant summary.
func (r FleetResult) Table() string {
	t := stats.NewTable("policy", "tenant", "drives", "shared", "requests",
		"p50(µs)", "p99(µs)", "p99.9(µs)", "gc tail share", "blast radius")
	for _, ft := range r.Tenants {
		rep := ft.Report
		t.AddRow(ft.Policy, rep.Tenant, rep.Drives, rep.SharedDrives, rep.Requests,
			rep.P50/sim.Microsecond, rep.P99/sim.Microsecond, rep.P999/sim.Microsecond,
			fmt.Sprintf("%.2f%%", float64(rep.TailGCSharePPM)/10000),
			fmt.Sprintf("%.2f%%", float64(rep.BlastPPM)/10000))
	}
	out := t.String()
	si, st := r.Isolated("stripe")
	hi, ht := r.Isolated("hash")
	out += fmt.Sprintf("%d drives; tenants with zero GC blast radius: stripe %d/%d, hash %d/%d\n",
		r.Drives, si, st, hi, ht)
	return out
}

// MemLines renders the per-policy fleet memory summary (one line each).
// Separate from Table: see the Mem field.
func (r FleetResult) MemLines() string {
	out := ""
	for _, m := range r.Mem {
		out += fmt.Sprintf("%s %s\n", m.Policy, m.Report)
	}
	return out
}

// TelemetryLines renders the per-tenant telemetry/attribution join: the
// left-hand columns are what a transparent device set would disclose to the
// tenant (in-window totals over the whole run), the right-hand columns the
// simulator-only ground truth. WAF is the tenant drive set's
// pages_programmed / host_pages_programmed including prefill history.
func (r FleetResult) TelemetryLines() string {
	if len(r.Telemetry) == 0 {
		return ""
	}
	t := stats.NewTable("policy", "tenant", "drives", "waf", "gc runs",
		"free min", "refresh debt", "gc tail share", "blast radius")
	for _, tt := range r.Telemetry {
		p := tt.Tel.Page
		waf := 0.0
		if p.HostPagesProgrammed > 0 {
			waf = float64(p.PagesProgrammed) / float64(p.HostPagesProgrammed)
		}
		t.AddRow(tt.Policy, tt.Tel.Tenant, p.Drives,
			fmt.Sprintf("%.2f", waf), p.GCRuns, p.FreeBlocksMin, p.RefreshPending,
			fmt.Sprintf("%.2f%%", float64(tt.Tel.TailGCSharePPM)/10000),
			fmt.Sprintf("%.2f%%", float64(tt.Tel.BlastPPM)/10000))
	}
	return t.String()
}

// lastFleetMem holds the most recently completed fleet cell's memory
// accounting, atomically published from the worker that ran the cell so the
// live /progress endpoint can report tier residency without ever touching
// in-flight simulation state.
var lastFleetMem atomic.Pointer[FleetMem]

func publishFleetMem(m FleetMem) { lastFleetMem.Store(&m) }

// FleetMemSnapshot returns the most recently published fleet memory report,
// or nil when no fleet cell has completed yet. Safe from any goroutine.
func FleetMemSnapshot() *FleetMem { return lastFleetMem.Load() }

// fleetPolicies returns the two placement policies under comparison: static
// full-fleet striping (maximal sharing) and consistent-hash ring placement
// over quarter-fleet groups (bounded sharing).
func fleetPolicies(drives int, seed int64) []fleet.Placement {
	group := drives / fleetTenants
	if group < 1 {
		group = 1
	}
	return []fleet.Placement{
		fleet.StripeAll(drives),
		fleet.ConsistentHash(drives, group, seed),
	}
}

// FleetTail runs the fleet experiment: one cell per placement policy, each
// an independent co-simulation of the whole tier on its own host engine.
// Drives are preconditioned clones from the snapshot cache (four distinct
// images: two models at two fill levels), so building a 256-drive tier
// costs four prefills. Per-tenant traffic replays identically across
// policies; only the drive→tenant mapping differs.
func FleetTail(scale Scale, seed int64) FleetResult {
	drives := int(scale.pick(32, 256))
	reqs := scale.pick(1500, 12000)

	type cellOut struct {
		tenants   []FleetTenant
		mem       FleetMem
		telemetry []FleetTenantTelemetry
	}
	var cells []runner.Task[cellOut]
	for _, pl := range fleetPolicies(drives, seed) {
		pl := pl
		label := fmt.Sprintf("fleet/%s/%dd", pl.Name(), drives)
		cells = append(cells, runner.TracedCell(observer(), label,
			func(tr *obs.Tracer) cellOut {
				host := sim.NewEngine()
				devs := make([]*ssd.Device, drives)
				for i := range devs {
					cfg := fleetDriveConfig(i%2, seed)
					dtr := obs.NewTracer(fmt.Sprintf("drive%03d", i))
					dtr.SetRecordCap(1)
					devs[i] = prefilledDeviceFrac(cfg, dtr, fleetFillLevels[(i/2)%2])
				}
				f := fleet.New(host, devs, fleetStripe)
				f.BindObs(tr)

				groups := make([][]int, fleetTenants)
				for t := range groups {
					groups[t] = pl.Group(t)
				}
				volBytes := fleet.VolumeBytes(devs[0].Size(), groups, drives, fleetStripe)
				vols := make([]*fleet.Volume, fleetTenants)
				targets := make([]workload.Target, fleetTenants)
				for t := range vols {
					v, err := f.AddVolume(fmt.Sprintf("t%d", t), groups[t], volBytes)
					if err != nil {
						panic(fmt.Sprintf("fleet experiment: %v", err))
					}
					vols[t] = v
					targets[t] = v
				}

				workload.RunMulti(targets, fleetSpecs(vols, seed),
					workload.Options{MaxRequests: reqs})
				f.PublishMetrics(tr)

				out := cellOut{
					tenants: make([]FleetTenant, fleetTenants),
					mem:     FleetMem{Policy: pl.Name(), Report: f.MemReport()},
				}
				for t, v := range vols {
					out.tenants[t] = FleetTenant{Policy: pl.Name(), Report: v.Report()}
				}
				for _, tt := range f.TenantTelemetry() {
					out.telemetry = append(out.telemetry,
						FleetTenantTelemetry{Policy: pl.Name(), Tel: tt})
				}
				publishFleetMem(out.mem)
				return out
			}))
	}
	res := FleetResult{Drives: drives}
	for _, c := range runner.Map(pool(), cells) {
		res.Tenants = append(res.Tenants, c.tenants...)
		res.Mem = append(res.Mem, c.mem)
		res.Telemetry = append(res.Telemetry, c.telemetry...)
	}
	return res
}
