package sim

import "fmt"

// Sharded event execution (DESIGN.md §10). A ShardGroup coordinates several
// engines ("shards") as one simulation: each shard keeps its own intrusive
// heap and clock, offset from a shared group clock by a fixed base, and the
// group defines a total order over all events — (group time, shard index,
// shard-local sequence). Step and RunUntil fire events in exactly that order.
//
// The group finds the earliest shard through an indexed binary min-heap of
// shard indices keyed by (group time of the shard's next event, shard
// index), idle shards last: NextTime reads the root, and re-keying one shard
// is an O(log N) sift. A key must never be stale when it is read, so every
// change to a shard's queue reaches the group: the group itself runs shard
// engines (Step, RunShard) and re-keys them afterwards, and code outside the
// group that schedules onto or cancels from a shard calls Touch. A shard
// whose engine is running right now — its events may submit to other shards
// and ask for NextTime before the batch ends — sits on the active stack, and
// NextTime/Step re-key those shards before reading the root.
//
// Most of that bookkeeping finds nothing to do, so it is skipped where a key
// provably cannot have changed: a RunShard with no event due fires nothing
// and only moves the shard's clock, which is not part of its key, and a
// re-key that reads back the key the slot already holds does not sift.

// groupShard is one engine attached to a ShardGroup.
type groupShard struct {
	eng  *Engine
	base Time // shard-local clock minus group clock, fixed at attach
	pos  int  // slot in ShardGroup.heap
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

// ShardGroup advances several engines under one total order. Not safe for
// concurrent use. The zero value is an empty group.
type ShardGroup struct {
	shards []groupShard
	heap   []shardKey
	// active holds the shards whose engines are running right now, innermost
	// last; a shard run re-entrantly from its own batch appears twice.
	active []int
}

// Attach adds a shard and returns its index. base is the shard's local clock
// minus the group clock at attach time.
func (g *ShardGroup) Attach(eng *Engine, base Time) int {
	i := len(g.shards)
	g.shards = append(g.shards, groupShard{eng: eng, base: base, pos: i})
	g.heap = append(g.heap, shardKey{shard: int32(i), idle: true})
	g.rekey(i)
	return i
}

// Touch re-keys shard i after code outside the group scheduled onto or
// canceled from its engine.
func (g *ShardGroup) Touch(i int) { g.rekey(i) }

// rekey reads shard i's next event time into its heap slot and sifts the
// slot to its place. An unchanged key is already in place.
func (g *ShardGroup) rekey(i int) {
	s := &g.shards[i]
	t, ok := s.eng.NextEventTime()
	p := s.pos
	k := &g.heap[p]
	if at, idle := t-s.base, !ok; k.at != at || k.idle != idle {
		k.at, k.idle = at, idle
		if !g.up(p) {
			g.down(p)
		}
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

// root re-keys the active shards and returns the heap's root, or false when
// every shard is idle.
func (g *ShardGroup) root() (shardKey, bool) {
	g.refresh()
	if len(g.heap) == 0 || g.heap[0].idle {
		return shardKey{}, false
	}
	return g.heap[0], true
}

// NextTime returns the group time of the earliest pending event across all
// shards, or (0, false) when every shard is idle.
func (g *ShardGroup) NextTime() (Time, bool) {
	k, ok := g.root()
	return k.at, ok
}

// Step fires the globally earliest event batch: the shard holding the
// minimum (group time, shard index) advances through every event at that
// instant (including ones those events schedule for the same instant), in
// its own (time, seq) order. Reports whether anything fired.
func (g *ShardGroup) Step() bool {
	k, ok := g.root()
	if ok {
		g.fire(k)
	}
	return ok
}

// RunUntil fires every event with group time <= t, in (time, shard, seq)
// order. Shard clocks advance only to their fired events, never to t itself;
// callers that need a shard synchronized to a later instant use RunShard.
// Each batch re-keys the active shards once and reads the root once.
func (g *ShardGroup) RunUntil(t Time) {
	for {
		k, ok := g.root()
		if !ok || k.at > t {
			return
		}
		g.fire(k)
	}
}

// fire runs the batch the root key k names. The key must be fresh: a shard
// whose next event is not at k.at would fire nothing (or fire out of
// order), and a loop that keeps reading the same stale root would spin
// forever, so that is a panic.
func (g *ShardGroup) fire(k shardKey) {
	s := &g.shards[k.shard]
	if next, ok := s.eng.NextEventTime(); !ok || next != s.base+k.at {
		panic(fmt.Sprintf("sim: stale shard key: shard %d keyed at group time %d, next event at %d (pending %t)",
			k.shard, k.at, next-s.base, ok))
	}
	g.runBatch(int(k.shard), k.at)
}

// RunShard fires shard i's events with group time <= t and advances its
// clock to exactly t (Engine.RunUntil on the shard's local clock), then
// re-keys the shard. Events it fires may run shards re-entrantly, including
// shard i itself. When no event is due, only the clock moves: the shard's
// key is its next event's time, which has not changed, so it is not
// re-keyed (a shard on the active stack is re-keyed when the group next
// reads its root).
func (g *ShardGroup) RunShard(i int, t Time) {
	s := &g.shards[i]
	lt := s.base + t
	if next, ok := s.eng.NextEventTime(); !ok || next > lt {
		s.eng.RunUntil(lt)
		return
	}
	g.runBatch(i, t)
}

// runBatch is RunShard for a shard with an event due.
func (g *ShardGroup) runBatch(i int, t Time) {
	s := &g.shards[i]
	g.active = append(g.active, i)
	s.eng.RunUntil(s.base + t)
	g.active = g.active[:len(g.active)-1]
	g.rekey(i)
}
