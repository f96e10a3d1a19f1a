package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// Property tests for ShardGroup: randomized schedule/cancel/rebase programs
// replayed against the retained sequential reference scheduler
// (refheap_test.go) extended to a multi-shard group, demanding identical
// firing order. Programs include cross-shard ops: an event on shard X
// schedules onto shard Y, directly or after a RunShard(Y) nested in X's
// batch — the fleet's completion-submits-to-another-drive pattern — and a
// linear-scan oracle checks the group's heap after every op and inside those
// callbacks.

// refPeek pops lazily-canceled heads and returns the live head's time.
func refPeek(e *refEngine) (Time, bool) {
	for len(e.pq) > 0 && (e.pq[0].canceled || e.pq[0].fn == nil) {
		heap.Pop(&e.pq)
	}
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].time, true
}

// refGroup mirrors ShardGroup's total order — (group time, shard index,
// local seq) — over reference engines.
type refGroup struct {
	shards []*refEngine
	bases  []Time
}

func (g *refGroup) next() (Time, int, bool) {
	best := -1
	var bt Time
	for i, e := range g.shards {
		if t, ok := refPeek(e); ok {
			if gt := t - g.bases[i]; best < 0 || gt < bt {
				best, bt = i, gt
			}
		}
	}
	return bt, best, best >= 0
}

func (g *refGroup) step() bool {
	_, i, ok := g.next()
	if !ok {
		return false
	}
	e := g.shards[i]
	t, _ := refPeek(e)
	// Fire the whole same-instant batch, including children the batch
	// schedules at the same instant — matching ShardGroup.Step's RunUntil.
	for {
		pt, live := refPeek(e)
		if !live || pt != t {
			return true
		}
		e.step()
	}
}

// runShard mirrors ShardGroup.RunShard: Engine.RunUntil on shard i's clock.
func (g *refGroup) runShard(i int, t Time) {
	e := g.shards[i]
	for {
		pt, ok := refPeek(e)
		if !ok || pt > g.bases[i]+t {
			break
		}
		e.step()
	}
	if lt := g.bases[i] + t; lt > e.now {
		e.now = lt
	}
}

func (g *refGroup) runUntil(t Time) {
	for {
		next, _, ok := g.next()
		if !ok || next > t {
			return
		}
		g.step()
	}
}

// fired is one log entry: which event fired, at what group time.
type fired struct {
	id int
	at Time
}

// shardState is the per-shard world a program's callbacks may touch,
// including the rng that drives callback behavior, whose draw order is
// per-shard deterministic.
type shardState struct {
	rng     *rand.Rand
	log     []fired
	cancels []func()
	nextID  int
}

// backend abstracts the scheduler under test vs the reference. shard-local
// time bases are maintained identically on both sides, so equal delays mean
// equal group times.
type backend interface {
	schedule(shard int, delay Time, fn func()) (cancel func())
	localNow(shard int) Time
	pendingEmpty(shard int) bool
	rebase(shard int, delta Time)
	runShard(shard int, t Time)
	runUntil(t Time)
	drain()
	// check compares the scheduler's earliest-event answer with an oracle.
	check()
}

type realBackend struct {
	engs  []*Engine
	group ShardGroup
	bases []Time
	// mismatch records the first NextTime that disagreed with scanNextTime.
	mismatch string
}

func newRealBackend(nShards int) *realBackend {
	b := &realBackend{}
	for i := 0; i < nShards; i++ {
		e := NewEngine()
		b.engs = append(b.engs, e)
		b.bases = append(b.bases, 0)
		b.group.Attach(e, 0)
	}
	return b
}

// schedule and its cancel reach the engine from outside the group, so both
// Touch the shard.
func (b *realBackend) schedule(shard int, delay Time, fn func()) func() {
	ev := b.engs[shard].Schedule(delay, fn)
	b.group.Touch(shard)
	return func() {
		ev.Cancel()
		b.group.Touch(shard)
	}
}
func (b *realBackend) runShard(shard int, t Time)  { b.group.RunShard(shard, t) }
func (b *realBackend) localNow(shard int) Time     { return b.engs[shard].Now() }
func (b *realBackend) pendingEmpty(shard int) bool { return b.engs[shard].Pending() == 0 }

// SetBase re-declares shard i's clock offset. Needed after rebasing an empty
// shard engine (snapshot restore moves the local clock without firing
// events); the caller owns keeping base consistent with the engine's clock.
func (g *ShardGroup) SetBase(i int, base Time) {
	g.shards[i].base = base
	g.rekey(i)
}

func (b *realBackend) rebase(shard int, delta Time) {
	e := b.engs[shard]
	e.Rebase(e.Now() + delta)
	b.bases[shard] += delta
	b.group.SetBase(shard, b.bases[shard])
}

// scanNextTime is the linear scan the group's heap replaces: the earliest
// (group time) pending event over every shard engine.
func scanNextTime(g *ShardGroup) (Time, bool) {
	var best Time
	found := false
	for i := range g.shards {
		s := &g.shards[i]
		if t, ok := s.eng.NextEventTime(); ok {
			if gt := t - s.base; !found || gt < best {
				best, found = gt, true
			}
		}
	}
	return best, found
}

func (b *realBackend) check() {
	if len(b.group.active) == 0 && b.mismatch == "" {
		b.mismatch = auditShardHeap(&b.group)
	}
	gt, gok := b.group.NextTime()
	st, sok := scanNextTime(&b.group)
	if (gt != st || gok != sok) && b.mismatch == "" {
		b.mismatch = fmt.Sprintf("NextTime (%d,%v), scan (%d,%v)", gt, gok, st, sok)
	}
}

// auditShardHeap checks every slot of g's heap while no shard is active,
// when no key may be stale: each slot's key is the one recomputed from its
// shard's engine, its shard's pos points back at it, and it is not less
// than its parent. It returns "" or the first violation.
func auditShardHeap(g *ShardGroup) string {
	if len(g.heap) != len(g.shards) {
		return fmt.Sprintf("%d heap slots for %d shards", len(g.heap), len(g.shards))
	}
	for p, k := range g.heap {
		s := &g.shards[k.shard]
		if s.pos != p {
			return fmt.Sprintf("slot %d holds shard %d, whose pos is %d", p, k.shard, s.pos)
		}
		t, ok := s.eng.NextEventTime()
		if k.idle != !ok || ok && k.at != t-s.base {
			return fmt.Sprintf("slot %d: shard %d keyed (%d, idle %v), engine next (%d, %v) base %d",
				p, k.shard, k.at, k.idle, t, ok, s.base)
		}
		if p > 0 && k.less(g.heap[(p-1)/2]) {
			return fmt.Sprintf("slot %d: shard %d's key is less than its parent's", p, k.shard)
		}
	}
	return ""
}

func (b *realBackend) runUntil(t Time) { b.group.RunUntil(t) }

func (b *realBackend) drain() {
	for b.group.Step() {
	}
}

type refBackend struct {
	group *refGroup
}

func newRefBackend(nShards int) *refBackend {
	g := &refGroup{}
	for i := 0; i < nShards; i++ {
		g.shards = append(g.shards, &refEngine{})
		g.bases = append(g.bases, 0)
	}
	return &refBackend{group: g}
}

func (b *refBackend) schedule(shard int, delay Time, fn func()) func() {
	ev := b.group.shards[shard].schedule(delay, fn)
	return ev.cancel
}
func (b *refBackend) localNow(shard int) Time { return b.group.shards[shard].now }
func (b *refBackend) pendingEmpty(shard int) bool {
	_, ok := refPeek(b.group.shards[shard])
	return !ok
}
func (b *refBackend) rebase(shard int, delta Time) {
	b.group.shards[shard].now += delta
	b.group.bases[shard] += delta
}
func (b *refBackend) runShard(shard int, t Time) { b.group.runShard(shard, t) }
func (b *refBackend) runUntil(t Time)            { b.group.runUntil(t) }
func (b *refBackend) check()                     {}
func (b *refBackend) drain() {
	for b.group.step() {
	}
}

// program is the top-level script: a fixed op list both backends replay.
type progOp struct {
	// kind: 0 schedule root, 1 cancel a root, 2 runUntil, 3 rebase,
	// 4 schedule a root that schedules onto shard pick%nShards when it
	// fires, 5 the same after a nested RunShard of that shard.
	kind  int
	shard int
	arg   Time
	pick  int
}

// genProgram draws a program.
func genProgram(rng *rand.Rand) (nShards int, ops []progOp) {
	nShards = 1 + rng.Intn(4)
	n := 15 + rng.Intn(20)
	for i := 0; i < n; i++ {
		op := progOp{shard: rng.Intn(nShards), pick: rng.Int()}
		switch k := rng.Intn(13); {
		case k < 5: // schedule a root event
			op.kind = 0
			op.arg = Time(rng.Intn(500))
		case k < 6: // cancel a previously scheduled root
			op.kind = 1
		case k < 9: // advance group time
			op.kind = 2
			op.arg = Time(50 + rng.Intn(300))
		case k < 10: // rebase an idle shard forward
			op.kind = 3
			op.arg = Time(rng.Intn(200))
		default: // a root whose callback schedules onto another shard
			op.kind = 4 + rng.Intn(2)
			op.arg = Time(rng.Intn(500))
		}
		ops = append(ops, op)
	}
	return nShards, ops
}

// runProgram replays ops on b. Callback behavior draws from per-shard rngs
// seeded from seed, so every execution of the same program behaves
// identically regardless of backend.
func runProgram(b backend, seed int64, nShards int, ops []progOp) []*shardState {
	states := make([]*shardState, nShards)
	for i := range states {
		states[i] = &shardState{rng: rand.New(rand.NewSource(seed + int64(i)))}
	}

	// fire is the body of every event: log, maybe spawn same-shard children,
	// maybe cancel a same-shard event. All state is shard-private.
	var fire func(shard, id int, base func(int) Time)
	fire = func(shard, id int, base func(int) Time) {
		s := states[shard]
		s.log = append(s.log, fired{id: id, at: b.localNow(shard) - base(shard)})
		for s.rng.Intn(100) < 30 {
			cid := s.nextID
			s.nextID++
			s.cancels = append(s.cancels,
				b.schedule(shard, Time(s.rng.Intn(300)), func() { fire(shard, cid, base) }))
		}
		if s.rng.Intn(100) < 20 && len(s.cancels) > 0 {
			s.cancels[s.rng.Intn(len(s.cancels))]()
		}
	}

	base := func(shard int) Time {
		switch bk := b.(type) {
		case *realBackend:
			return bk.bases[shard]
		case *refBackend:
			return bk.group.bases[shard]
		}
		return 0
	}

	// root schedules a fresh root event with body fn on shard.
	root := func(shard int, delay Time, fn func(shard, id int)) {
		s := states[shard]
		id := s.nextID
		s.nextID++
		s.cancels = append(s.cancels, b.schedule(shard, delay, func() { fn(shard, id) }))
	}
	plain := func(shard, id int) { fire(shard, id, base) }

	var groupTime Time
	for _, op := range ops {
		switch op.kind {
		case 0:
			root(op.shard, op.arg, plain)
		case 1:
			s := states[op.shard]
			if len(s.cancels) > 0 {
				s.cancels[op.pick%len(s.cancels)]()
			}
		case 2:
			groupTime += op.arg
			b.runUntil(groupTime)
		case 3:
			if b.pendingEmpty(op.shard) {
				b.rebase(op.shard, op.arg)
			}
		case 4, 5:
			y, delay, nested := op.pick%nShards, Time(op.pick%300), op.kind == 5
			root(op.shard, op.arg, func(x, id int) {
				fire(x, id, base)
				// Schedule onto y at x's group time plus delay, or at
				// y's own clock if that is later: group time is not
				// monotone across program phases (roots may land before
				// instants other shards already reached).
				now := b.localNow(x) - base(x)
				if nested {
					b.runShard(y, now)
				}
				at := max(b.localNow(y), base(y)+now) + delay
				root(y, at-b.localNow(y), plain)
				// The fleet's armPump asks for NextTime here, mid-batch.
				b.check()
			})
		}
		b.check()
	}
	b.drain()
	b.check()
	return states
}

// mergeLogs flattens per-shard logs into the (time, shard, log order) total
// order — the global firing order for serial executions.
func mergeLogs(states []*shardState) []fired {
	var out []fired
	idx := make([]int, len(states))
	for {
		best := -1
		var bt Time
		for i, s := range states {
			if idx[i] < len(s.log) {
				if e := s.log[idx[i]]; best < 0 || e.at < bt {
					best, bt = i, e.at
				}
			}
		}
		if best < 0 {
			return out
		}
		s := states[best]
		for idx[best] < len(s.log) && s.log[idx[best]].at == bt {
			out = append(out, s.log[idx[best]])
			idx[best]++
		}
	}
}

func equalStates(a, b []*shardState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].log) != len(b[i].log) || a[i].nextID != b[i].nextID {
			return false
		}
		for j := range a[i].log {
			if a[i].log[j] != b[i].log[j] {
				return false
			}
		}
	}
	return true
}

// TestShardGroupRunShardFastPath pins RunShard with nothing due: the
// shard's clock moves to the target, nothing fires, and the heap is left
// exactly as it was — no slot re-keyed or moved. A due event takes the
// slow path, fires, and re-keys its shard.
func TestShardGroupRunShardFastPath(t *testing.T) {
	var g ShardGroup
	engs := make([]*Engine, 4)
	fired := 0
	for i := range engs {
		e := NewEngine()
		engs[i] = e
		g.Attach(e, Time(10*i))
	}
	// Shards 0 and 2 hold one event each; 1 and 3 are idle.
	engs[0].Schedule(100, func() { fired++ })
	g.Touch(0)
	engs[2].Schedule(300, func() { fired++ })
	g.Touch(2)
	heap0 := append([]shardKey(nil), g.heap...)
	pos0 := make([]int, len(g.shards))
	for i := range g.shards {
		pos0[i] = g.shards[i].pos
	}
	unchanged := func(what string) {
		t.Helper()
		for p := range heap0 {
			if g.heap[p] != heap0[p] {
				t.Fatalf("%s: heap slot %d changed from %+v to %+v", what, p, heap0[p], g.heap[p])
			}
		}
		for i := range g.shards {
			if g.shards[i].pos != pos0[i] {
				t.Fatalf("%s: shard %d moved from slot %d to %d", what, i, pos0[i], g.shards[i].pos)
			}
		}
		if len(g.active) != 0 {
			t.Fatalf("%s: %d shards left on the active stack", what, len(g.active))
		}
		if msg := auditShardHeap(&g); msg != "" {
			t.Fatalf("%s: %s", what, msg)
		}
	}
	cases := []struct {
		shard int
		t     Time
	}{
		{0, 50},  // busy shard, event at group time 100
		{0, 99},  // one tick before it
		{1, 70},  // idle shard
		{2, 250}, // busy shard with a non-zero base: event at group time 280
		{3, 400}, // idle shard past every event
		{1, 20},  // earlier than the shard's clock: it must not move back
	}
	for _, c := range cases {
		before := engs[c.shard].Now()
		g.RunShard(c.shard, c.t)
		what := fmt.Sprintf("RunShard(%d, %d)", c.shard, c.t)
		if want := max(before, Time(10*c.shard)+c.t); engs[c.shard].Now() != want {
			t.Fatalf("%s: shard clock %d, want %d", what, engs[c.shard].Now(), want)
		}
		if fired != 0 {
			t.Fatalf("%s: fired %d events", what, fired)
		}
		unchanged(what)
	}
	g.RunShard(0, 100)
	if fired != 1 || engs[0].Now() != 100 {
		t.Fatalf("RunShard(0, 100): fired %d, clock %d; want 1 event at 100", fired, engs[0].Now())
	}
	if msg := auditShardHeap(&g); msg != "" {
		t.Fatalf("after the due batch: %s", msg)
	}
	if next, ok := g.NextTime(); !ok || next != 280 {
		t.Fatalf("NextTime = (%d, %v), want shard 2's event at 280", next, ok)
	}
}

// TestShardGroupMatchesReference replays randomized programs on the sharded
// engine and the reference group, demanding the identical global firing
// order.
func TestShardGroupMatchesReference(t *testing.T) {
	programs := 10000
	if testing.Short() {
		programs = 500
	}
	for p := 0; p < programs; p++ {
		seed := int64(p)*7919 + 17
		rng := rand.New(rand.NewSource(seed))
		nShards, ops := genProgram(rng)

		real := newRealBackend(nShards)
		realStates := runProgram(real, seed, nShards, ops)
		ref := newRefBackend(nShards)
		refStates := runProgram(ref, seed, nShards, ops)

		if real.mismatch != "" {
			t.Fatalf("program %d: heap vs scan oracle: %s", p, real.mismatch)
		}
		if !equalStates(realStates, refStates) {
			t.Fatalf("program %d: sharded vs reference diverged", p)
		}
		rm, fm := mergeLogs(realStates), mergeLogs(refStates)
		if len(rm) != len(fm) {
			t.Fatalf("program %d: merged log length %d vs %d", p, len(rm), len(fm))
		}
		for i := range rm {
			if rm[i] != fm[i] {
				t.Fatalf("program %d: merged log diverges at %d: %+v vs %+v", p, i, rm[i], fm[i])
			}
		}
	}
}

// TestShardGroupZeroAlloc pins steady-state stepping through the shard heap
// at zero allocations.
func TestShardGroupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	var g ShardGroup
	for i := 0; i < 8; i++ {
		e := NewEngine()
		period := Time(7 + i)
		var tick func()
		tick = func() { e.Schedule(period, tick) }
		e.Schedule(0, tick)
		g.Attach(e, 0)
	}
	var h Time
	round := func() {
		h += 200
		g.RunUntil(h)
	}
	for i := 0; i < 10; i++ { // grow the engines' queues
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("serial round allocates %.1f objects/op, want 0", allocs)
	}
}
