package fleet

import "ssdtp/internal/telemetry"

// Fleet-level transparency (DESIGN.md §14): the tier discloses the same log
// page a single drive does, summed across drives, and — the piece no real
// multi-tenant host gets today — a per-tenant join of each tenant's disclosed
// drive-set telemetry with the blast-radius attribution the profiler
// computes. The telemetry columns are what a transparent device would let
// the tenant see; BlastPPM is the ground truth it would explain.

// FillLogPage aggregates every drive's log page into p (Accumulate
// semantics: counters sum, FreeBlocksMin is the scarcest PU tier-wide,
// GCVictimValidPPM the worst in-flight victim).
func (f *Fleet) FillLogPage(p *telemetry.Page) {
	for _, d := range f.drives {
		var q telemetry.Page
		d.dev.FillLogPage(&q)
		p.Accumulate(&q)
	}
}

// TenantTelemetry is one tenant's disclosed state joined with its GC
// attribution: the log page aggregated over the drives backing the volume,
// plus the tail shares only the simulator's profiler can measure.
type TenantTelemetry struct {
	Tenant         string
	Page           telemetry.Page
	TailGCSharePPM int64
	BlastPPM       int64
}

// tenantPage aggregates the log pages of the drives backing v.
func (v *Volume) tenantPage() telemetry.Page {
	var p telemetry.Page
	for _, di := range v.shared {
		var q telemetry.Page
		v.f.drives[di].dev.FillLogPage(&q)
		p.Accumulate(&q)
	}
	return p
}

// TenantTelemetry returns the per-tenant telemetry/attribution join, one row
// per volume in creation order. Pure function of current simulation state —
// deterministic at any worker count once the run has drained.
func (f *Fleet) TenantTelemetry() []TenantTelemetry {
	out := make([]TenantTelemetry, 0, len(f.vols))
	for _, v := range f.vols {
		r := v.Report()
		out = append(out, TenantTelemetry{
			Tenant:         v.name,
			Page:           v.tenantPage(),
			TailGCSharePPM: r.TailGCSharePPM,
			BlastPPM:       r.BlastPPM,
		})
	}
	return out
}
