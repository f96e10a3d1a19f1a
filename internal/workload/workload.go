// Package workload is the repository's fio: synthetic I/O generators with
// queue-depth control, per-request latency recording, and concurrent
// multi-workload runs over a simulated device. It reimplements the feature
// subset the paper uses (§2.1–2.2): uniform random writes, 80/20 hotspot
// writes, sequential writes, configurable request sizes, time-bounded runs,
// and disjoint LBA sections per workload.
package workload

import (
	"fmt"
	"math/rand"

	"ssdtp/internal/sim"
	"ssdtp/internal/stats"
)

// Target is what a generator drives: any asynchronous block target on a
// simulation engine. *ssd.Device satisfies it directly; the fleet layer's
// per-tenant volumes (internal/fleet) satisfy it too, so the same generators
// that measure one drive produce the multi-tenant traffic of a
// thousands-of-drives placement tier. All offsets and lengths are bytes and
// must be SectorSize-aligned; done callbacks fire on the target's engine.
type Target interface {
	// Engine returns the engine that drives the target; generators schedule
	// their arrival processes and run their completion waits on it.
	Engine() *sim.Engine
	// Size returns the target's capacity in bytes.
	Size() int64
	// SectorSize returns the alignment unit in bytes.
	SectorSize() int
	// WriteAsync submits a write; done fires at completion. data may be nil
	// for timing-only workloads.
	WriteAsync(off int64, data []byte, length int64, done func()) error
	// ReadAsync submits a read; done fires when the data is available. buf
	// may be nil for timing-only workloads.
	ReadAsync(off int64, buf []byte, length int64, done func()) error
	// TrimAsync discards a range.
	TrimAsync(off, length int64, done func()) error
	// FlushAsync drains volatile write state; done fires once settled.
	FlushAsync(done func()) error
}

// Pattern selects an access pattern.
type Pattern int

// Access patterns.
const (
	// Sequential advances through the section, wrapping at the end.
	Sequential Pattern = iota
	// Uniform picks request offsets uniformly at random in the section.
	Uniform
	// Hotspot directs HotAccessFrac of requests at the first HotFrac of
	// the section (the paper's 80-20 distribution).
	Hotspot
)

func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "seq"
	case Uniform:
		return "uniform"
	case Hotspot:
		return "hotspot"
	default:
		return "?"
	}
}

// Spec describes one workload.
type Spec struct {
	Name    string
	Pattern Pattern

	// HotFrac/HotAccessFrac parameterize Hotspot (defaults 0.2/0.8).
	HotFrac       float64
	HotAccessFrac float64

	// RequestBytes is the I/O size (sector-aligned).
	RequestBytes int

	// Offset/Length bound the workload's LBA section in bytes. Length 0
	// means "to the end of the device".
	Offset int64
	Length int64

	// QueueDepth is the number of outstanding requests (default 1).
	QueueDepth int

	// ReadFrac is the fraction of read requests (0 = pure write).
	ReadFrac float64

	// SyncEvery issues a device flush after every N-th request completes
	// before the next is issued (fio's fsync=N). 0 disables. Closed-loop
	// only.
	SyncEvery int

	// Interval switches the generator to open-loop arrivals: one request
	// issues every Interval nanoseconds regardless of completions (fio's
	// rate limiting). Latency then measures the device's stall structure
	// rather than queueing collapse. QueueDepth and SyncEvery are ignored.
	Interval sim.Time

	// Burst groups open-loop arrivals: Burst requests issue back-to-back
	// every Burst*Interval, preserving the average rate while creating the
	// arrival bursts (and idle gaps) real applications produce. 0 or 1
	// means smooth arrivals.
	Burst int

	Seed int64
}

// Result aggregates one workload's outcome.
type Result struct {
	Name         string
	Requests     int64
	BytesWritten int64
	BytesRead    int64
	Duration     sim.Time
	Latency      *stats.LatencyRecorder
	// SkippedOps counts trace operations Replay could not issue against the
	// target (oversized, misaligned, or unknown kinds). Always 0 for
	// generated workloads.
	SkippedOps int64
}

// IOPS returns completed requests per simulated second.
func (r Result) IOPS() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Requests) / (float64(r.Duration) / float64(sim.Second))
}

// ThroughputMBps returns payload megabytes per simulated second.
func (r Result) ThroughputMBps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.BytesWritten+r.BytesRead) / 1e6 / (float64(r.Duration) / float64(sim.Second))
}

func (r Result) String() string {
	return fmt.Sprintf("%s: %d reqs, %.0f IOPS, p50=%dµs p99=%dµs max=%dµs",
		r.Name, r.Requests, r.IOPS(),
		r.Latency.Percentile(50)/sim.Microsecond,
		r.Latency.Percentile(99)/sim.Microsecond,
		r.Latency.Max()/sim.Microsecond)
}

// generator drives one Spec against a target.
type generator struct {
	spec     Spec
	dev      Target
	rng      *rand.Rand
	deadline sim.Time
	maxReqs  int64

	nextSeq    int64 // sequential pointer (in requests)
	inflight   int
	issued     int64
	sinceSync  int
	res        *Result
	doneSignal func()

	// Prebuilt continuations (built once in init) and the pooled per-request
	// descriptor freelist: the steady-state issue/complete loop reuses these
	// instead of allocating a closure per request (DESIGN.md §13).
	reqFree   *wreq
	pumpTail  func() // closed-loop completion tail (sync bookkeeping + pump)
	openTail  func() // open-loop completion tail (drain check)
	flushCont func() // post-flush resume
	tickFn    func() // openLoopTick, for Schedule re-arm
}

// wreq is one in-flight generated request. fire is built at pool growth and
// recycles the descriptor before running the continuation.
type wreq struct {
	g      *generator
	start  sim.Time
	n      int64
	isRead bool
	then   func()
	fire   func()
	next   *wreq
}

func (g *generator) newReq(start sim.Time, n int64, isRead bool, then func()) *wreq {
	r := g.reqFree
	if r == nil {
		r = &wreq{g: g}
		r.fire = func() {
			g := r.g
			g.inflight--
			g.res.Requests++
			g.res.Latency.Record(g.dev.Engine().Now() - r.start)
			if r.isRead {
				g.res.BytesRead += r.n
			} else {
				g.res.BytesWritten += r.n
			}
			then := r.then
			r.then = nil
			r.next = g.reqFree
			g.reqFree = r
			if then != nil {
				then()
			}
		}
	} else {
		g.reqFree = r.next
		r.next = nil
	}
	r.start = start
	r.n = n
	r.isRead = isRead
	r.then = then
	return r
}

// init builds the generator's shared continuations.
func (g *generator) init() {
	eng := g.dev.Engine()
	g.pumpTail = func() {
		if g.spec.SyncEvery > 0 {
			g.sinceSync++
			if g.sinceSync >= g.spec.SyncEvery {
				g.sinceSync = 0
				if err := g.dev.FlushAsync(g.flushCont); err != nil {
					panic(fmt.Sprintf("workload %s: flush: %v", g.spec.Name, err))
				}
				return
			}
		}
		g.pump()
	}
	g.openTail = func() {
		if g.inflight == 0 &&
			(eng.Now() >= g.deadline || (g.maxReqs > 0 && g.issued >= g.maxReqs)) {
			g.signalDone()
		}
	}
	g.flushCont = g.pump
	g.tickFn = g.openLoopTick
}

func (g *generator) sectionBounds() (off, length int64) {
	off = g.spec.Offset
	length = g.spec.Length
	if length == 0 {
		length = g.dev.Size() - off
	}
	return off, length
}

func (g *generator) nextOffset() int64 {
	off, length := g.sectionBounds()
	reqs := length / int64(g.spec.RequestBytes)
	if reqs <= 0 {
		panic(fmt.Sprintf("workload %s: section smaller than one request", g.spec.Name))
	}
	var slot int64
	switch g.spec.Pattern {
	case Sequential:
		slot = g.nextSeq % reqs
		g.nextSeq++
	case Uniform:
		slot = g.rng.Int63n(reqs)
	case Hotspot:
		hf, haf := g.spec.HotFrac, g.spec.HotAccessFrac
		if hf == 0 {
			hf = 0.2
		}
		if haf == 0 {
			haf = 0.8
		}
		hot := int64(float64(reqs) * hf)
		if hot < 1 {
			hot = 1
		}
		// When the hot region covers the whole section (a section holding a
		// single request, or HotFrac ~ 1), there is no cold region to pick
		// from: every access is hot. Without the guard the cold branch would
		// call Int63n(0), which panics.
		if cold := reqs - hot; cold <= 0 || g.rng.Float64() < haf {
			slot = g.rng.Int63n(hot)
		} else {
			slot = hot + g.rng.Int63n(cold)
		}
	}
	return off + slot*int64(g.spec.RequestBytes)
}

// start kicks off request generation in the configured loop mode.
func (g *generator) start() {
	if g.spec.Interval > 0 {
		g.openLoopTick()
		return
	}
	g.pump()
}

// openLoopTick issues one request per interval until the run bound, then
// signals once in-flight requests drain.
func (g *generator) openLoopTick() {
	eng := g.dev.Engine()
	if eng.Now() >= g.deadline || (g.maxReqs > 0 && g.issued >= g.maxReqs) {
		if g.inflight == 0 {
			g.signalDone()
		}
		return
	}
	burst := g.spec.Burst
	if burst < 1 {
		burst = 1
	}
	for i := 0; i < burst; i++ {
		if g.maxReqs > 0 && g.issued >= g.maxReqs {
			break
		}
		g.issueOne(g.openTail)
	}
	eng.Schedule(g.spec.Interval*sim.Time(burst), g.tickFn)
}

// signalDone fires the completion signal exactly once.
func (g *generator) signalDone() {
	if g.doneSignal != nil {
		s := g.doneSignal
		g.doneSignal = nil
		s()
	}
}

// issueOne submits a single request; after accounting, it runs then().
func (g *generator) issueOne(then func()) {
	eng := g.dev.Engine()
	off := g.nextOffset()
	isRead := g.spec.ReadFrac > 0 && g.rng.Float64() < g.spec.ReadFrac
	n := int64(g.spec.RequestBytes)
	g.inflight++
	g.issued++
	r := g.newReq(eng.Now(), n, isRead, then)
	var err error
	if isRead {
		err = g.dev.ReadAsync(off, nil, n, r.fire)
	} else {
		err = g.dev.WriteAsync(off, nil, n, r.fire)
	}
	if err != nil {
		panic(fmt.Sprintf("workload %s: %v", g.spec.Name, err))
	}
}

// pump issues requests until the queue is full or the run is over.
func (g *generator) pump() {
	eng := g.dev.Engine()
	for g.inflight < g.spec.QueueDepth {
		if eng.Now() >= g.deadline || (g.maxReqs > 0 && g.issued >= g.maxReqs) {
			if g.inflight == 0 {
				g.signalDone()
			}
			return
		}
		g.issueOne(g.pumpTail)
	}
}

// Options bound a run: it stops when the simulated Duration elapses or each
// workload has issued MaxRequests, whichever comes first.
type Options struct {
	Duration    sim.Time
	MaxRequests int64
}

// Run executes one workload to completion and returns its result. The
// target's engine is driven inside.
func Run(dev Target, spec Spec, opt Options) Result {
	results := RunConcurrent(dev, []Spec{spec}, opt)
	return results[0]
}

// RunConcurrent executes several workloads simultaneously on one target —
// the paper's mixed-workload experiment (§2.2, Figure 4b). Each workload
// keeps its own queue depth and section; results are per-workload.
func RunConcurrent(dev Target, specs []Spec, opt Options) []Result {
	targets := make([]Target, len(specs))
	for i := range targets {
		targets[i] = dev
	}
	return RunMulti(targets, specs, opt)
}

// RunMulti executes specs[i] against targets[i], all driven by one shared
// engine — the fleet layer's multi-tenant traffic mix, where each tenant's
// generator writes into its own placement-tier volume. All targets must
// return the same Engine; results are per-workload, in spec order.
func RunMulti(targets []Target, specs []Spec, opt Options) []Result {
	if len(targets) != len(specs) {
		panic("workload: RunMulti targets and specs must pair up")
	}
	if len(specs) == 0 {
		return nil
	}
	eng := targets[0].Engine()
	if opt.Duration <= 0 && opt.MaxRequests <= 0 {
		panic("workload: Options must bound the run")
	}
	deadline := eng.Now() + opt.Duration
	if opt.Duration <= 0 {
		deadline = 1 << 62
	}
	start := eng.Now()
	results := make([]Result, len(specs))
	remaining := len(specs)
	for i := range specs {
		spec := specs[i]
		if targets[i].Engine() != eng {
			panic("workload: RunMulti targets must share one engine")
		}
		if spec.QueueDepth <= 0 {
			spec.QueueDepth = 1
		}
		if spec.RequestBytes <= 0 {
			panic("workload: RequestBytes must be positive")
		}
		results[i] = Result{Name: spec.Name, Latency: stats.NewLatencyRecorder()}
		g := &generator{
			spec:     spec,
			dev:      targets[i],
			rng:      rand.New(rand.NewSource(spec.Seed + 1)),
			deadline: deadline,
			maxReqs:  opt.MaxRequests,
			res:      &results[i],
			doneSignal: func() {
				remaining--
			},
		}
		g.init()
		g.start()
	}
	eng.RunWhile(func() bool { return remaining > 0 })
	for i := range results {
		results[i].Duration = eng.Now() - start
	}
	return results
}
