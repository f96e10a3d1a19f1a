// Package fleet simulates a host-side storage tier: hundreds to thousands of
// ssd.Device instances (heterogeneous models, ages and fill levels, cloned
// cheaply from preconditioned snapshots) behind a striping/placement layer,
// serving multiple tenants. It turns the paper's per-drive transparency
// argument into the fleet problem operators actually have: garbage collection
// on a drive one tenant fills blows the p99 of every other tenant striped
// over it. See DESIGN.md §10.
//
// # Co-simulation
//
// Restored drive clones carry their preconditioning clock and trailing GC
// events, and sim.Engine.Rebase forbids moving an engine with pending events —
// so every drive keeps its own engine, offset from fleet time by a fixed
// per-drive base (its clock at attach). The drive engines are the shards of
// one sim.ShardGroup, whose indexed heap answers "earliest pending drive
// event" in O(1) and re-keys a drive in O(log N). The fleet owns one host
// engine, which tenant workloads (workload.RunMulti) drive as usual; a
// single "pump" event on the host engine is always armed at the group's
// NextTime. When it fires, due drive events are stepped in (fleet time,
// drive index) order; when a volume submits I/O, the target drive's clock is
// first advanced to fleet-now (ShardGroup.RunShard) and, after the
// submission, the drive is re-keyed (ShardGroup.Touch) — every drive engine
// advances through the group, so the heap is never stale when armPump reads
// it, even from a completion that fires mid-batch on another drive. New
// drive events are always scheduled at or after the drive's current clock,
// so no drive event can become due before the armed pump — the interleaving
// is total, deterministic, and independent of host-side worker counts.
//
// # Attribution
//
// Each drive's latency-attribution profiler (obs.Profiler) gets a row sink,
// so every completed sub-request's exact phase decomposition is observed at
// completion — no per-request state is retained on the drives. The volume
// charges the row's gc_stall time to the issuing tenant, split by whether the
// drive is shared with other tenants; the per-tenant tail of those charges is
// the GC blast radius.
package fleet

import (
	"fmt"

	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
	"ssdtp/internal/telemetry"
)

// drive is one device in the tier plus its co-simulation and placement state.
type drive struct {
	dev  *ssd.Device
	idx  int      // shard index in Fleet.group
	base sim.Time // drive-local clock minus fleet clock, fixed at attach

	tenants int   // volumes with at least one extent here
	cursor  int64 // next unallocated drive-local byte

	// lastRow/hasRow form the one-slot row hand-off from the drive profiler's
	// sink to the volume's sub-request completion: ReqAttr.End runs the sink
	// and then, synchronously, the completion callback, so the slot always
	// holds exactly the completing request's row when the callback reads it.
	lastRow obs.AttrRow
	hasRow  bool
}

// takeRow consumes the row hand-off slot.
func (d *drive) takeRow() (obs.AttrRow, bool) {
	if !d.hasRow {
		return obs.AttrRow{}, false
	}
	d.hasRow = false
	return d.lastRow, true
}

// Fleet is the drive tier. Construct with New, carve tenant volumes with
// AddVolume, then drive the host engine (workload generators do) — the fleet
// keeps every drive's simulation interleaved with the host clock.
type Fleet struct {
	eng    *sim.Engine
	drives []*drive
	stripe int64
	sector int
	pump   sim.Event
	vols   []*Volume
	tr     *obs.Tracer    // cell tracer from BindObs; carries tenant-request spans
	group  sim.ShardGroup // the drive engines, one shard each

	// freeReqs and freeFrags recycle volume-request descriptors, so a
	// steady-state tenant request allocates nothing in the fleet.
	freeReqs  []*volReq
	freeFrags []*volFrag
}

// New assembles a tier over devs on the host engine eng. Each device must be
// on its own engine (not eng) with no host I/O outstanding; stripeBytes is
// the placement extent size, a positive multiple of the common sector size.
func New(eng *sim.Engine, devs []*ssd.Device, stripeBytes int64) *Fleet {
	if len(devs) == 0 {
		panic("fleet: New with no drives")
	}
	f := &Fleet{eng: eng, stripe: stripeBytes, sector: devs[0].SectorSize()}
	if stripeBytes <= 0 || stripeBytes%int64(f.sector) != 0 {
		panic(fmt.Sprintf("fleet: stripe %d not a positive multiple of sector %d", stripeBytes, f.sector))
	}
	f.drives = make([]*drive, len(devs))
	for i, dev := range devs {
		if dev.Engine() == eng {
			panic("fleet: drives must not share the host engine")
		}
		if dev.SectorSize() != f.sector {
			panic(fmt.Sprintf("fleet: drive %d sector %d != fleet sector %d", i, dev.SectorSize(), f.sector))
		}
		d := &drive{dev: dev, base: dev.Engine().Now() - eng.Now()}
		if prof := dev.Tracer().Prof(); prof != nil {
			prof.SetRowSink(func(r obs.AttrRow) {
				d.lastRow = r
				d.hasRow = true
			})
		}
		d.idx = f.group.Attach(dev.Engine(), d.base)
		f.drives[i] = d
	}
	f.armPump()
	return f
}

// Engine returns the host engine.
func (f *Fleet) Engine() *sim.Engine { return f.eng }

// Drives returns the tier size.
func (f *Fleet) Drives() int { return len(f.drives) }

// SharedDrives returns how many drives back more than one volume.
func (f *Fleet) SharedDrives() int {
	n := 0
	for _, d := range f.drives {
		if d.tenants > 1 {
			n++
		}
	}
	return n
}

// syncDrive advances a drive's local clock to fleet-now, firing any of its
// events due at or before it, so a submission lands on an up-to-date drive.
func (f *Fleet) syncDrive(d *drive) {
	f.group.RunShard(d.idx, f.eng.Now())
}

// armPump (re)schedules the pump at the earliest pending drive event. The
// invariant — no drive event is due before the armed pump — holds because
// drives only gain events while being stepped or synced at fleet-now, so
// every new event's fleet time is >= now.
func (f *Fleet) armPump() {
	next, ok := f.group.NextTime()
	if f.pump.Pending() {
		if ok && f.pump.Time() == next {
			return
		}
		f.pump.Cancel()
	}
	if !ok {
		return
	}
	if now := f.eng.Now(); next < now {
		next = now // defensive; the invariant makes this unreachable
	}
	f.pump = f.eng.AtArg(next, firePump, f)
}

// firePump is the pump's closure-free callback (arg is the *Fleet), so a
// re-arm allocates nothing.
func firePump(f any) { f.(*Fleet).pumpFire() }

// pumpFire steps every due drive event in (fleet time, drive index) order —
// sim.ShardGroup's total order over the drive shards — then re-arms.
// Completion callbacks fired here run tenant logic (latency recording,
// follow-on submissions) at the correct host-clock instant.
func (f *Fleet) pumpFire() {
	f.group.RunUntil(f.eng.Now())
	f.armPump()
}

// volRow is one tenant request's blast-radius accounting: end-to-end latency
// plus the gc_stall time its sub-requests were charged, split by whether the
// drive is shared with other tenants.
type volRow struct {
	total    sim.Time
	gc       sim.Time
	gcShared sim.Time
}

// DefaultRowCap bounds retained per-request rows per volume; beyond it,
// requests still count but drop their exact row.
const DefaultRowCap = 1 << 20

// Volume is one tenant's striped slice of the tier. It implements
// workload.Target on the fleet's host engine, so the same generators that
// measure a single drive produce multi-tenant fleet traffic.
type Volume struct {
	f      *Fleet
	name   string
	size   int64
	shared []int // distinct drives of the group, for flush fan-out

	// place has one entry per group position: extent e of the volume lives
	// on place[e%k].drive at local byte place[e%k].start + (e/k)*step, with
	// k = len(place). The placement costs O(group), not O(extents).
	place []slot

	requests    int64
	subRequests int64
	// rows is the per-request log Report's percentiles and tail sums are
	// taken from, built in blocks so recording never copies earlier rows.
	rows        stats.Log[volRow]
	rowCap      int
	droppedRows int64
}

// slot is one group position's share of a volume's extents: the drive, the
// local byte of the position's first extent, and the local distance between
// its consecutive extents.
type slot struct {
	drive       int32
	start, step int64
}

// AddVolume carves a tenant volume of the given byte size, striped in extent
// (stripe-size) units across the drive group in order. Capacity is allocated
// from each drive's cursor; an error is returned when the group cannot hold
// the volume. Volumes must all be added before traffic starts: sharing is
// derived from the final tenant count per drive.
func (f *Fleet) AddVolume(name string, group []int, bytes int64) (*Volume, error) {
	if len(group) == 0 {
		return nil, fmt.Errorf("fleet: volume %s: empty drive group", name)
	}
	extents := bytes / f.stripe
	if extents <= 0 {
		return nil, fmt.Errorf("fleet: volume %s: size %d below one %d-byte extent", name, bytes, f.stripe)
	}
	// A volume with fewer extents than group positions uses only the first
	// extents positions.
	group = group[:min(int64(len(group)), extents)]
	v := &Volume{
		f:      f,
		name:   name,
		size:   extents * f.stripe,
		place:  make([]slot, len(group)),
		rowCap: DefaultRowCap,
	}
	// Validate the whole allocation before committing any cursor movement,
	// so a failed AddVolume leaves the tier exactly as it found it. Group
	// position j holds every extent e ≡ j (mod k); need sums those per
	// drive, and m counts each drive's positions.
	k := int64(len(group))
	need := make([]int64, len(f.drives))
	m := make([]int64, len(f.drives))
	for j, di := range group {
		if di < 0 || di >= len(f.drives) {
			return nil, fmt.Errorf("fleet: volume %s: drive index %d out of range", name, di)
		}
		need[di] += ((extents-1-int64(j))/k + 1) * f.stripe
		m[di]++
	}
	for di, n := range need {
		if d := f.drives[di]; n > 0 && d.cursor+n > d.dev.Size() {
			return nil, fmt.Errorf("fleet: volume %s: drive %d cannot hold %d more bytes (%d of %d used)",
				name, di, n, d.cursor, d.dev.Size())
		}
	}
	// Extents fill the group round by round, each taking its drive's next
	// stripe. A drive listed m times takes m stripes per round, and its
	// position of rank r among those m takes the r-th of them, so extent
	// q*k+j lies at the drive's cursor plus (q*m + r)*stripe.
	rank := make([]int64, len(f.drives))
	for j, di := range group {
		v.place[j] = slot{
			drive: int32(di),
			start: f.drives[di].cursor + rank[di]*f.stripe,
			step:  m[di] * f.stripe,
		}
		rank[di]++
	}
	// Ascending drive order: the deterministic flush fan-out order.
	for di, n := range need {
		if n > 0 {
			d := f.drives[di]
			d.cursor += n
			d.tenants++
			v.shared = append(v.shared, di)
		}
	}
	f.vols = append(f.vols, v)
	return v, nil
}

// Name returns the tenant label.
func (v *Volume) Name() string { return v.name }

// Engine returns the fleet's host engine (workload.Target).
func (v *Volume) Engine() *sim.Engine { return v.f.eng }

// Size returns the volume's capacity in bytes (workload.Target).
func (v *Volume) Size() int64 { return v.size }

// SectorSize returns the tier's common sector size (workload.Target).
func (v *Volume) SectorSize() int { return v.f.sector }

// piece returns the drive-local head of [off, off+length): its drive, its
// local offset, and its length, which ends at the next extent boundary or at
// off+length. submit walks a request with it, one piece per extent touched.
func (v *Volume) piece(off, length int64) (di int32, local, n int64) {
	stripe := v.f.stripe
	e, within := off/stripe, off%stripe
	k := int64(len(v.place))
	p := &v.place[e%k]
	return p.drive, p.start + e/k*p.step + within, min(stripe-within, length)
}

// checkIO validates a request against the volume's bounds and alignment.
func (v *Volume) checkIO(off, n int64) error {
	if off < 0 || n <= 0 || off+n > v.size {
		return fmt.Errorf("fleet %s: access [%d,+%d) beyond size %d", v.name, off, n, v.size)
	}
	if s := int64(v.f.sector); off%s != 0 || n%s != 0 {
		return fmt.Errorf("fleet %s: unaligned access off=%d len=%d", v.name, off, n)
	}
	return nil
}

// opKind selects the drive entry point in submit.
type opKind int

const (
	opWrite opKind = iota
	opRead
	opTrim
)

// opSpans are the tenant-request span names, by opKind.
var opSpans = [...]string{opWrite: "fleet.write", opRead: "fleet.read", opTrim: "fleet.trim"}

// volReq is one tenant request in flight: the joint completion state its
// drive pieces report into. Descriptors are recycled through
// Fleet.freeReqs; the last piece to complete releases its request before
// calling the tenant's done, so a completion that submits again reuses it.
type volReq struct {
	v            *Volume
	start        sim.Time
	remaining    int
	gc, gcShared sim.Time
	sp           obs.Span
	done         func()
	flush        bool // a volume flush: its pieces charge and record nothing
}

// volFrag is one drive-local piece of a volReq. complete is its completion
// method value, bound once when the descriptor is first allocated and handed
// to the drive on every reuse (Fleet.freeFrags).
type volFrag struct {
	req      *volReq
	d        *drive
	shared   bool // d backs other tenants too
	complete func()
}

// newReq returns a recycled (or fresh) request descriptor.
func (f *Fleet) newReq() *volReq {
	if n := len(f.freeReqs); n > 0 {
		r := f.freeReqs[n-1]
		f.freeReqs = f.freeReqs[:n-1]
		return r
	}
	return new(volReq)
}

// newFrag returns a recycled (or fresh) piece descriptor.
func (f *Fleet) newFrag() *volFrag {
	if n := len(f.freeFrags); n > 0 {
		fr := f.freeFrags[n-1]
		f.freeFrags = f.freeFrags[:n-1]
		return fr
	}
	fr := new(volFrag)
	fr.complete = fr.done
	return fr
}

// done is a piece's completion: it consumes the drive's attribution row
// into the request's gc_stall accounting and, on the request's last piece,
// records the request, ends its span and completes it to the tenant.
func (fr *volFrag) done() {
	r, d, shared := fr.req, fr.d, fr.shared
	v := r.v
	f := v.f
	fr.req, fr.d = nil, nil
	f.freeFrags = append(f.freeFrags, fr)
	if row, ok := d.takeRow(); ok && !r.flush {
		g := row.Phases[obs.PhaseGCStall]
		r.gc += g
		if shared {
			r.gcShared += g
		}
	}
	r.remaining--
	if r.remaining > 0 {
		return
	}
	if !r.flush {
		v.record(f.eng.Now()-r.start, r.gc, r.gcShared)
		r.sp.End()
	}
	done := r.done
	*r = volReq{}
	f.freeReqs = append(f.freeReqs, r)
	if done != nil {
		done()
	}
}

// submit splits a request across its drives, issues every piece, and wires a
// joint completion that consumes each sub-request's attribution row and
// records the tenant's blast-radius accounting.
func (v *Volume) submit(kind opKind, off, length int64, done func()) error {
	if err := v.checkIO(off, length); err != nil {
		return err
	}
	f := v.f
	r := f.newReq()
	r.v, r.start, r.done = v, f.eng.Now(), done
	if f.tr.Enabled() {
		r.sp = f.tr.Begin(opSpans[kind],
			obs.Str("tenant", v.name), obs.Int("off", off), obs.Int("len", length))
	}
	// Count every piece before issuing any: syncing a later piece's drive
	// may complete an earlier piece on the same drive.
	r.remaining = int((off+length-1)/f.stripe - off/f.stripe + 1)
	for length > 0 {
		di, local, n := v.piece(off, length)
		off, length = off+n, length-n
		d := f.drives[di]
		fr := f.newFrag()
		fr.req, fr.d, fr.shared = r, d, d.tenants > 1
		f.syncDrive(d)
		v.subRequests++
		var err error
		switch kind {
		case opWrite:
			err = d.dev.WriteAsync(local, nil, n, fr.complete)
		case opRead:
			err = d.dev.ReadAsync(local, nil, n, fr.complete)
		case opTrim:
			err = d.dev.TrimAsync(local, n, fr.complete)
		}
		f.group.Touch(d.idx)
		if err != nil {
			// The volume range was validated above; a drive rejecting a
			// mapped piece means the extent map is corrupt.
			panic(fmt.Sprintf("fleet %s: drive %d rejected mapped I/O: %v", v.name, di, err))
		}
	}
	f.armPump()
	return nil
}

// record accumulates one completed tenant request.
func (v *Volume) record(total, gc, gcShared sim.Time) {
	v.requests++
	if v.rows.Len() >= v.rowCap {
		v.droppedRows++
		return
	}
	v.rows.Append(volRow{total: total, gc: gc, gcShared: gcShared})
}

// WriteAsync submits a striped write (workload.Target).
func (v *Volume) WriteAsync(off int64, data []byte, length int64, done func()) error {
	if data != nil {
		length = int64(len(data))
	}
	return v.submit(opWrite, off, length, done)
}

// ReadAsync submits a striped read (workload.Target).
func (v *Volume) ReadAsync(off int64, buf []byte, length int64, done func()) error {
	if buf != nil {
		length = int64(len(buf))
	}
	return v.submit(opRead, off, length, done)
}

// TrimAsync discards a striped range (workload.Target).
func (v *Volume) TrimAsync(off, length int64, done func()) error {
	return v.submit(opTrim, off, length, done)
}

// FlushAsync flushes every drive backing the volume; done fires once all have
// settled (workload.Target). Flushes are not recorded as tenant requests —
// the blast-radius metric is defined over read/write latency. When a drive
// rejects its flush, the error is returned and done never fires; flushes
// already queued on earlier drives still run, so the pump is re-armed on
// every return. Each drive's flush is a piece of one pooled flush request,
// whose pieces consume their drives' rows without charging them.
func (v *Volume) FlushAsync(done func()) error {
	f := v.f
	defer f.armPump()
	r := f.newReq()
	r.v, r.done, r.flush = v, done, true
	r.remaining = len(v.shared)
	for _, di := range v.shared {
		d := f.drives[di]
		fr := f.newFrag()
		fr.req, fr.d = r, d
		f.syncDrive(d)
		err := d.dev.FlushAsync(fr.complete)
		f.group.Touch(di)
		if err != nil {
			fr.req, fr.d = nil, nil
			f.freeFrags = append(f.freeFrags, fr)
			return fmt.Errorf("fleet %s: drive %d: %w", v.name, di, err)
		}
	}
	return nil
}

// TenantReport is one tenant's latency and interference summary.
type TenantReport struct {
	Tenant       string
	Drives       int // drives backing the volume
	SharedDrives int // of those, drives also backing other tenants
	Requests     int64
	P50          sim.Time
	P95          sim.Time
	P99          sim.Time
	P999         sim.Time
	// TailThreshold is the latency bound defining the p99 tail below.
	TailThreshold sim.Time
	// TailGCSharePPM is gc_stall's share of the p99 tail's summed latency
	// (parts per million), over all of the tenant's drives.
	TailGCSharePPM int64
	// BlastPPM is the GC blast radius: the share of the p99 tail's summed
	// latency charged to gc_stall on drives shared with other tenants —
	// interference the tenant cannot see, caused by neighbors it cannot name.
	BlastPPM int64
}

// Report summarizes the volume's completed requests. The percentiles come
// from a recorder of the retained rows' totals, built for this call and
// dropped after it, so the volume keeps only its row log between reports.
func (v *Volume) Report() TenantReport {
	r := TenantReport{Tenant: v.name, Drives: len(v.shared), Requests: v.requests}
	for _, di := range v.shared {
		if v.f.drives[di].tenants > 1 {
			r.SharedDrives++
		}
	}
	if v.rows.Len() == 0 {
		return r
	}
	lat := stats.NewLatencyRecorder()
	v.rows.EachBlock(func(rows []volRow) {
		for i := range rows {
			lat.Record(rows[i].total)
		}
	})
	r.P50 = lat.Percentile(50)
	r.P95 = lat.Percentile(95)
	r.P99 = lat.Percentile(99)
	r.P999 = lat.Percentile(99.9)
	r.TailThreshold = r.P99
	var sum, gc, gcShared sim.Time
	v.rows.EachBlock(func(rows []volRow) {
		for i := range rows {
			if rows[i].total < r.TailThreshold {
				continue
			}
			sum += rows[i].total
			gc += rows[i].gc
			gcShared += rows[i].gcShared
		}
	})
	if sum > 0 {
		r.TailGCSharePPM = int64(gc) * 1_000_000 / int64(sum)
		r.BlastPPM = int64(gcShared) * 1_000_000 / int64(sum)
	}
	return r
}

// MemReport is fleet-wide resident-memory accounting for copy-on-write drive
// images (DESIGN.md §12): how many bytes the tier actually holds versus what
// the drives would occupy fully copied. Shared chunks are deduplicated by
// identity across drives, so ImageBytes counts each sealed image chunk once
// no matter how many clones reference it.
type MemReport struct {
	Drives          int   `json:"drives"`
	ResidentBytes   int64 `json:"resident_bytes"` // ImageBytes + PrivateBytes
	ImageBytes      int64 `json:"image_bytes"`    // unique shared image chunk bytes
	ImageChunks     int64 `json:"image_chunks"`   // unique shared image chunks
	SharedRefs      int64 `json:"shared_refs"`    // shared-chunk references summed over drives
	PrivateBytes    int64 `json:"private_bytes"`  // exclusively owned chunk bytes summed over drives
	CowCopies       int64 `json:"cow_copies"`     // chunks privately copied on first write
	UntouchedDrives int   `json:"untouched_drives"`
	UntouchedCow    int64 `json:"untouched_cow_copies"` // cow copies on drives backing no volume
}

// MemReport walks every drive's COW accounting. Deterministic given the same
// simulation state; call it from the simulation thread (experiments publish
// it into metrics; live endpoints read an atomically published copy).
func (f *Fleet) MemReport() MemReport {
	r := MemReport{Drives: len(f.drives)}
	seen := make(map[any]struct{})
	for _, d := range f.drives {
		st := d.dev.MemStats()
		r.PrivateBytes += st.OwnedBytes
		r.SharedRefs += st.SharedChunks
		r.CowCopies += st.CowCopies
		if d.tenants == 0 {
			r.UntouchedDrives++
			r.UntouchedCow += st.CowCopies
		}
		d.dev.VisitSharedChunks(func(id any, bytes int64) {
			if _, ok := seen[id]; ok {
				return
			}
			seen[id] = struct{}{}
			r.ImageChunks++
			r.ImageBytes += bytes
		})
	}
	r.ResidentBytes = r.ImageBytes + r.PrivateBytes
	return r
}

// String renders the one-line fleet memory summary printed under experiment
// tables and by ssdfio -fleet.
func (r MemReport) String() string {
	mib := func(b int64) float64 { return float64(b) / (1 << 20) }
	return fmt.Sprintf(
		"fleet memory: %d drives resident in %.1f MiB = %.1f MiB shared image (%d chunks) + %.1f MiB private dirty; %d COW chunk copies (%d on %d untouched drives)",
		r.Drives, mib(r.ResidentBytes), mib(r.ImageBytes), r.ImageChunks,
		mib(r.PrivateBytes), r.CowCopies, r.UntouchedCow, r.UntouchedDrives)
}

// BindObs attaches the fleet to a cell tracer: host-engine events count into
// the tracer's engine metrics, tenant requests open fleet.write/read/trim
// spans (the drives' own spans stay on their private capped tracers — at
// fleet scale the tenant-level stream is the one worth exporting), and, when
// the tracer samples pages, rows are sampled on host-clock boundaries from
// the tier's log page (FillLogPage).
func (f *Fleet) BindObs(tr *obs.Tracer) {
	f.tr = tr
	tr.BindEngine(f.eng)
	tr.SetPageSource(f.FillLogPage)
}

// PublishMetrics snapshots tier-level aggregates and per-tenant summaries
// into tr's metric set, and credits every drive engine's fired events to the
// cell so the events-fired metric covers the whole co-simulation. Call once
// at the end of a run.
func (f *Fleet) PublishMetrics(tr *obs.Tracer) {
	m := tr.Metrics()
	if m == nil {
		return
	}
	var agg telemetry.Page
	f.FillLogPage(&agg)
	var driveEvents, written, read int64
	for _, d := range f.drives {
		driveEvents += d.dev.Tracer().EventsFired()
		written += d.dev.HostBytesWritten()
		read += d.dev.HostBytesRead()
	}
	tr.AddEventsFired(driveEvents)
	m.Set("ssdtp_fleet_drives", int64(len(f.drives)))
	m.Set("ssdtp_fleet_shared_drives", int64(f.SharedDrives()))
	m.Set("ssdtp_fleet_tenants", int64(len(f.vols)))
	m.Set("ssdtp_fleet_host_bytes_written_total", written)
	m.Set("ssdtp_fleet_host_bytes_read_total", read)
	m.Set("ssdtp_fleet_pages_programmed_total", agg.PagesProgrammed)
	m.Set("ssdtp_fleet_gc_pages_moved_total", agg.GCPagesProgrammed)
	mem := f.MemReport()
	m.Set("ssdtp_image_shared_chunks", mem.ImageChunks)
	m.Set("ssdtp_image_cow_chunks", mem.CowCopies)
	m.Set("ssdtp_image_resident_bytes", mem.ResidentBytes)
	for _, v := range f.vols {
		r := v.Report()
		pre := "ssdtp_fleet_tenant_" + v.name
		m.Set(pre+"_requests_total", r.Requests)
		m.Set(pre+"_sub_requests_total", v.subRequests)
		m.Set(pre+"_dropped_rows_total", v.droppedRows)
		m.Set(pre+"_p50_ns", int64(r.P50))
		m.Set(pre+"_p99_ns", int64(r.P99))
		m.Set(pre+"_p999_ns", int64(r.P999))
		m.Set(pre+"_tail_gc_share_ppm", r.TailGCSharePPM)
		m.Set(pre+"_blast_radius_ppm", r.BlastPPM)
		// The tenant's disclosed log page, summarized: what a transparent
		// device set would let this tenant observe about its own backing
		// drives (DESIGN.md §14).
		p := v.tenantPage()
		m.Set(pre+"_telemetry_active_gc_units", p.ActiveGCUnits)
		m.Set(pre+"_telemetry_free_blocks_min", p.FreeBlocksMin)
		m.Set(pre+"_telemetry_gc_pages_programmed_total", p.GCPagesProgrammed)
	}
}
