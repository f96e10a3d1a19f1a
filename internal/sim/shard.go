package sim

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Sharded event execution (DESIGN.md §11). A ShardGroup coordinates several
// engines ("shards") as one simulation: each shard keeps its own intrusive
// heap and clock, offset from a shared group clock by a fixed base, and the
// group defines a total order over all events — (group time, shard index,
// shard-local sequence). Serial stepping (Step/RunUntil) fires events in
// exactly that order.
//
// The group finds the earliest shard through an indexed binary min-heap of
// shard indices keyed by (group time of the shard's next event, shard
// index), idle shards last: NextTime reads the root, and re-keying one shard
// is an O(log N) sift. A key must never be stale when it is read, so every
// change to a shard's queue reaches the group: the group itself runs shard
// engines (Step, RunShard, AdvanceBefore) and re-keys them afterwards, and
// code outside the group that schedules onto or cancels from a shard calls
// Touch. A shard whose engine is running right now — its events may submit
// to other shards and ask for NextTime before the batch ends — sits on the
// active stack, and NextTime/Step re-key those shards before reading the
// root.
//
// The parallel path is conservative-lookahead PDES: each shard declares,
// through a FloorFunc, a lower bound on when it can next perform an
// *externally visible* action (one whose effects escape the shard's private
// object graph — in this repository, a host completion callback). The group
// horizon is the minimum of those floors and the caller's own bound; events
// strictly before the horizon are, by construction, internal to their shard,
// so AdvanceBefore may fire them concurrently on worker goroutines without
// perturbing the total order any outside observer can see. The serial
// residue — everything at or after the horizon — still steps in the fixed
// (time, shard, seq) order, so the merged run is byte-identical to the
// all-serial one (pinned by the property tests in shard_test.go).

// FloorFunc reports a conservative lower bound, in group time, on when its
// shard can next perform an externally visible action. ok=false means the
// shard is unbounded: nothing it currently has queued can become externally
// visible. The bound must be conservative (never later than the real next
// visible action) but need not be tight; returning the shard's next event
// time is always sound, and is what ssd.Device.CompletionFloor does.
type FloorFunc func() (Time, bool)

// groupShard is one engine attached to a ShardGroup.
type groupShard struct {
	eng   *Engine
	base  Time // shard-local clock minus group clock, fixed at attach
	floor FloorFunc
	pos   int // slot in ShardGroup.heap
}

// shardKey is one heap slot: a shard and the group time of its next event.
type shardKey struct {
	at    Time
	shard int32
	idle  bool // no pending event; at is meaningless
}

// less is the heap order: busy before idle, then (group time, shard index).
func (a shardKey) less(b shardKey) bool {
	if a.idle != b.idle {
		return b.idle
	}
	if !a.idle && a.at != b.at {
		return a.at < b.at
	}
	return a.shard < b.shard
}

// ShardGroup advances several engines under one total order, with optional
// conservative-horizon parallel windows. Not safe for concurrent use itself:
// one goroutine owns the group; AdvanceBefore manages its own workers.
type ShardGroup struct {
	workers int
	shards  []groupShard
	heap    []shardKey
	// active holds the shards whose engines are running right now, innermost
	// last; a shard run re-entrantly from its own batch appears twice.
	active []int
	// window is set while AdvanceBefore's workers run; Touch is a no-op then
	// (the window re-keys every shard it ran once the workers have joined).
	// h and bounded are the open window's horizon.
	window  bool
	h       Time
	bounded bool

	// Per-window scratch reused across AdvanceBefore calls: fired[i] is
	// shard i's distinct batch times in the current window, cand the shards
	// with work in it, walk the heap-walk stack, merged the returned list.
	fired  [][]Time
	cand   []int
	walk   []int
	merged []Time
	// Worker coordination for one parallel window. work is g.drainShared
	// bound once, so starting a worker allocates no closure.
	work     func()
	next     atomic.Int64
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicked any
}

// NewShardGroup returns an empty group. workers bounds the goroutines a
// parallel window uses; <= 0 means GOMAXPROCS.
func NewShardGroup(workers int) *ShardGroup {
	g := &ShardGroup{}
	g.work = g.drainShared
	g.SetWorkers(workers)
	return g
}

// SetWorkers adjusts the parallel-window worker bound (<= 0: GOMAXPROCS).
func (g *ShardGroup) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	g.workers = n
}

// Workers returns the current worker bound.
func (g *ShardGroup) Workers() int { return g.workers }

// Len returns the number of attached shards.
func (g *ShardGroup) Len() int { return len(g.shards) }

// Attach adds a shard and returns its index. base is the shard's local clock
// minus the group clock at attach time; floor may be nil for a shard that is
// never externally visible (always unbounded).
func (g *ShardGroup) Attach(eng *Engine, base Time, floor FloorFunc) int {
	i := len(g.shards)
	g.shards = append(g.shards, groupShard{eng: eng, base: base, floor: floor, pos: i})
	g.heap = append(g.heap, shardKey{shard: int32(i), idle: true})
	g.fired = append(g.fired, nil)
	g.rekey(i)
	return i
}

// Touch re-keys shard i after code outside the group scheduled onto or
// canceled from its engine. It is a no-op while an AdvanceBefore window is
// open: window events must stay inside their own shard, and the window
// re-keys every shard it ran.
func (g *ShardGroup) Touch(i int) {
	if !g.window {
		g.rekey(i)
	}
}

// rekey reads shard i's next event time into its heap slot and sifts the
// slot to its place.
func (g *ShardGroup) rekey(i int) {
	s := &g.shards[i]
	t, ok := s.eng.NextEventTime()
	p := s.pos
	g.heap[p].at, g.heap[p].idle = t-s.base, !ok
	if !g.up(p) {
		g.down(p)
	}
}

// up sifts slot p toward the root and reports whether it moved.
func (g *ShardGroup) up(p int) bool {
	k := g.heap[p]
	start := p
	for p > 0 {
		q := (p - 1) / 2
		if !k.less(g.heap[q]) {
			break
		}
		g.place(p, g.heap[q])
		p = q
	}
	g.place(p, k)
	return p != start
}

// down sifts slot p toward the leaves.
func (g *ShardGroup) down(p int) {
	k := g.heap[p]
	n := len(g.heap)
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && g.heap[c+1].less(g.heap[c]) {
			c++
		}
		if !g.heap[c].less(k) {
			break
		}
		g.place(p, g.heap[c])
		p = c
	}
	g.place(p, k)
}

// place stores k at slot p and records the slot on its shard.
func (g *ShardGroup) place(p int, k shardKey) {
	g.heap[p] = k
	g.shards[k.shard].pos = p
}

// refresh re-keys the shards whose engines are mid-batch: their queues may
// have changed since the group last looked.
func (g *ShardGroup) refresh() {
	for _, i := range g.active {
		g.rekey(i)
	}
}

// NextTime returns the group time of the earliest pending event across all
// shards, or (0, false) when every shard is idle.
func (g *ShardGroup) NextTime() (Time, bool) {
	g.refresh()
	if len(g.heap) == 0 || g.heap[0].idle {
		return 0, false
	}
	return g.heap[0].at, true
}

// Step fires the globally earliest event batch: the shard holding the
// minimum (group time, shard index) advances through every event at that
// instant (including ones those events schedule for the same instant), in
// its own (time, seq) order. Reports whether anything fired.
func (g *ShardGroup) Step() bool {
	g.refresh()
	if len(g.heap) == 0 || g.heap[0].idle {
		return false
	}
	root := g.heap[0]
	g.RunShard(int(root.shard), root.at)
	return true
}

// RunUntil fires every event with group time <= t, in (time, shard, seq)
// order. Shard clocks advance only to their fired events, never to t itself;
// callers that need a shard synchronized to a later instant use RunShard.
func (g *ShardGroup) RunUntil(t Time) {
	for {
		next, ok := g.NextTime()
		if !ok || next > t {
			return
		}
		g.Step()
	}
}

// RunShard fires shard i's events with group time <= t and advances its
// clock to exactly t (Engine.RunUntil on the shard's local clock), then
// re-keys the shard. Events it fires may run shards re-entrantly, including
// shard i itself.
func (g *ShardGroup) RunShard(i int, t Time) {
	s := &g.shards[i]
	g.active = append(g.active, i)
	s.eng.RunUntil(s.base + t)
	g.active = g.active[:len(g.active)-1]
	g.rekey(i)
}

// Horizon combines the shards' floors with the caller's own bound into the
// group horizon: no shard can act externally visibly strictly before the
// returned time. ok=false means unbounded — every floor and the caller's
// limit (bounded=false) are unbounded, so any amount of lookahead is safe.
func (g *ShardGroup) Horizon(limit Time, bounded bool) (Time, bool) {
	h, ok := limit, bounded
	for i := range g.shards {
		s := &g.shards[i]
		if s.floor == nil {
			continue
		}
		if f, fok := s.floor(); fok && (!ok || f < h) {
			h, ok = f, true
		}
	}
	return h, ok
}

// AdvanceBefore fires, concurrently across shards, every event with group
// time strictly before h (every event, when bounded=false). The caller must
// have established — normally via Horizon — that those events are internal
// to their shards; under that precondition the per-shard outcome is
// identical to serial stepping, because each shard fires its own events in
// its own order and no fired event can observe another shard.
//
// The return value is the ascending, de-duplicated list of group times at
// which batches fired — exactly the instants serial stepping would have
// visited for the same events. Callers replaying a serial schedule
// (internal/fleet's pump) use it to reproduce their per-instant bookkeeping.
// It is group scratch, valid until the next AdvanceBefore call; nil when
// nothing fired. A panic on any worker (model bugs panic in this repository)
// is re-raised on the caller after all workers stop.
func (g *ShardGroup) AdvanceBefore(h Time, bounded bool) []Time {
	if len(g.heap) == 0 {
		return nil
	}
	// Collect the shards with work in the window by walking the heap from
	// the root: a slot keyed at or past h (or idle) bounds its subtree.
	g.cand = g.cand[:0]
	g.walk = append(g.walk[:0], 0)
	for len(g.walk) > 0 {
		p := g.walk[len(g.walk)-1]
		g.walk = g.walk[:len(g.walk)-1]
		k := g.heap[p]
		if k.idle || (bounded && k.at >= h) {
			continue
		}
		g.cand = append(g.cand, int(k.shard))
		if c := 2*p + 1; c < len(g.heap) {
			g.walk = append(g.walk, c)
			if c+1 < len(g.heap) {
				g.walk = append(g.walk, c+1)
			}
		}
	}
	if len(g.cand) == 0 {
		return nil
	}

	g.window, g.h, g.bounded = true, h, bounded
	if len(g.cand) == 1 || g.workers <= 1 {
		for _, i := range g.cand {
			g.drain(i)
		}
	} else {
		workers := min(g.workers, len(g.cand))
		g.next.Store(0)
		g.wg.Add(workers)
		for w := 0; w < workers; w++ {
			go g.work()
		}
		g.wg.Wait()
	}
	g.window = false
	if r := g.panicked; r != nil {
		g.panicked = nil
		panic(r)
	}

	// Re-key the drained shards and merge their batch times into one
	// ascending, distinct list.
	merged := g.merged[:0]
	for _, i := range g.cand {
		g.rekey(i)
		merged = append(merged, g.fired[i]...)
	}
	g.merged = merged
	if len(merged) == 0 {
		return nil
	}
	slices.Sort(merged)
	return slices.Compact(merged)
}

// drainShared is one window worker: it drains candidate shards until none
// are left, recording the first panic for AdvanceBefore to re-raise.
func (g *ShardGroup) drainShared() {
	defer g.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			g.panicMu.Lock()
			if g.panicked == nil {
				g.panicked = r
			}
			g.panicMu.Unlock()
		}
	}()
	for {
		n := int(g.next.Add(1)) - 1
		if n >= len(g.cand) {
			return
		}
		g.drain(g.cand[n])
	}
}

// drain fires shard i's events before the window's horizon batch by batch,
// recording each batch's group time in fired[i].
func (g *ShardGroup) drain(i int) {
	s := &g.shards[i]
	times := g.fired[i][:0]
	for {
		t, ok := s.eng.NextEventTime()
		if !ok || (g.bounded && t >= s.base+g.h) {
			break
		}
		// RunUntil fires every event at t, including same-instant events
		// the batch schedules, so each recorded time is one batch.
		s.eng.RunUntil(t)
		times = append(times, t-s.base)
	}
	g.fired[i] = times
}
