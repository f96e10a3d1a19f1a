package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Property tests for ShardGroup (ISSUE 7 satellite): randomized
// schedule/cancel/rebase programs replayed against the retained sequential
// reference scheduler (refheap_test.go) extended to a multi-shard group,
// demanding identical firing order — and replayed again through
// conservative-horizon parallel windows at several worker counts, demanding
// per-shard identical outcomes regardless of how the run is windowed.
//
// Programs replayed through windows confine every callback's effects to its
// own shard (the only usage the horizon contract admits), so any window is
// legal there and the windowed run must match the serial one exactly. The
// serial-only programs add cross-shard ops: an event on shard X schedules
// onto shard Y, directly or after a RunShard(Y) nested in X's batch — the
// fleet's completion-submits-to-another-drive pattern — and a linear-scan
// oracle checks the group's heap after every op and inside those callbacks.

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

// shardState is the per-shard world a program's callbacks may touch. In the
// windowed executions different shards fire concurrently, so everything here
// must stay shard-private — including the rng that drives callback behavior,
// whose draw order is per-shard deterministic.
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
	group *ShardGroup
	bases []Time
	// windowed drives runUntil/drain through AdvanceBefore windows instead
	// of serial Step, using wrng to pick horizons. wrng only shapes the
	// window partition; outcomes must not depend on it.
	windowed bool
	wrng     *rand.Rand
	// windowTimes accumulates AdvanceBefore's returned batch times.
	windowTimes []Time
	// mismatch records the first NextTime that disagreed with scanNextTime.
	mismatch string
}

func newRealBackend(nShards, workers int, windowed bool, wseed int64) *realBackend {
	b := &realBackend{windowed: windowed, wrng: rand.New(rand.NewSource(wseed))}
	b.group = NewShardGroup(workers)
	for i := 0; i < nShards; i++ {
		e := NewEngine()
		b.engs = append(b.engs, e)
		b.bases = append(b.bases, 0)
		b.group.Attach(e, 0, nil)
	}
	return b
}

// schedule and its cancel reach the engine from outside the group, so both
// Touch the shard (a no-op inside windows, which re-key their shards).
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
	gt, gok := b.group.NextTime()
	st, sok := scanNextTime(b.group)
	if (gt != st || gok != sok) && b.mismatch == "" {
		b.mismatch = fmt.Sprintf("NextTime (%d,%v), scan (%d,%v)", gt, gok, st, sok)
	}
}

func (b *realBackend) runUntil(t Time) {
	if !b.windowed {
		b.group.RunUntil(t)
		return
	}
	for {
		next, ok := b.group.NextTime()
		if !ok || next > t {
			return
		}
		// Random horizon past the next event: windows of varying width,
		// capped so nothing beyond the requested time fires (< t+1 ⇔ <= t).
		h := next + 1 + Time(b.wrng.Intn(400))
		if h > t+1 {
			h = t + 1
		}
		b.windowTimes = append(b.windowTimes, b.group.AdvanceBefore(h, true)...)
	}
}

func (b *realBackend) drain() {
	if !b.windowed {
		for b.group.Step() {
		}
		return
	}
	// Alternate bounded windows with an occasional unbounded one.
	for {
		next, ok := b.group.NextTime()
		if !ok {
			return
		}
		if b.wrng.Intn(4) == 0 {
			b.windowTimes = append(b.windowTimes, b.group.AdvanceBefore(0, false)...)
			continue
		}
		h := next + 1 + Time(b.wrng.Intn(400))
		b.windowTimes = append(b.windowTimes, b.group.AdvanceBefore(h, true)...)
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

// genProgram draws a program; cross adds the cross-shard op kinds 4 and 5,
// which only serial execution admits.
func genProgram(rng *rand.Rand, cross bool) (nShards int, ops []progOp) {
	nShards = 1 + rng.Intn(4)
	n := 15 + rng.Intn(20)
	kinds := 10
	if cross {
		kinds = 13
	}
	for i := 0; i < n; i++ {
		op := progOp{shard: rng.Intn(nShards), pick: rng.Int()}
		switch k := rng.Intn(kinds); {
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
// identically regardless of backend or windowing.
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

// TestShardGroupMatchesReference replays randomized programs on the sharded
// engine (serial stepping) and the reference group, demanding the identical
// global firing order, then replays them again through parallel windows at
// several worker counts and demands identical per-shard outcomes.
func TestShardGroupMatchesReference(t *testing.T) {
	programs := 10000
	if testing.Short() {
		programs = 500
	}
	for p := 0; p < programs; p++ {
		seed := int64(p)*7919 + 17
		rng := rand.New(rand.NewSource(seed))
		// Every fifth program replays through windows and so stays
		// shard-private; the rest exercise cross-shard scheduling.
		windowed := p%5 == 0
		nShards, ops := genProgram(rng, !windowed)

		real := newRealBackend(nShards, 1, false, 0)
		realStates := runProgram(real, seed, nShards, ops)
		ref := newRefBackend(nShards)
		refStates := runProgram(ref, seed, nShards, ops)

		if real.mismatch != "" {
			t.Fatalf("program %d: heap vs scan oracle: %s", p, real.mismatch)
		}
		if !equalStates(realStates, refStates) {
			t.Fatalf("program %d: sharded serial vs reference diverged", p)
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

		// Windowed parallel executions: same program, same per-shard rng
		// seeds, different window partitions and worker counts. Outcomes
		// must be independent of both.
		if !windowed {
			continue
		}
		for _, workers := range []int{2, 4} {
			wb := newRealBackend(nShards, workers, true, seed^int64(workers)<<32)
			wStates := runProgram(wb, seed, nShards, ops)
			if wb.mismatch != "" {
				t.Fatalf("program %d: windowed (workers=%d) heap vs scan oracle: %s", p, workers, wb.mismatch)
			}
			if !equalStates(wStates, realStates) {
				t.Fatalf("program %d: windowed (workers=%d) vs serial diverged", p, workers)
			}
			for i, e := range wb.engs {
				if got, want := e.Now(), real.engs[i].Now(); got != want {
					t.Fatalf("program %d: shard %d clock %d vs serial %d (workers=%d)",
						p, i, got, want, workers)
				}
				if got, want := e.Pending(), real.engs[i].Pending(); got != want {
					t.Fatalf("program %d: shard %d pending %d vs serial %d", p, i, got, want)
				}
			}
			// AdvanceBefore's returned batch times must be exactly the
			// distinct group times the serial run fired at (after the window
			// phases began — here all windows, so compare against the whole
			// distinct fired-time list).
			var want []Time
			for _, e := range mergeLogs(realStates) {
				if len(want) == 0 || want[len(want)-1] != e.at {
					want = append(want, e.at)
				}
			}
			got := sortDedup(wb.windowTimes)
			if len(got) != len(want) {
				t.Fatalf("program %d: window batch times %d vs fired instants %d", p, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("program %d: window batch time[%d]=%d, want %d", p, i, got[i], want[i])
				}
			}
		}
	}
}

// sortDedup sorts and de-duplicates window batch times. Later program phases
// can schedule roots at group times earlier than instants already fired on
// other shards, so the concatenation of per-window ascending runs is not
// globally ascending.
func sortDedup(ts []Time) []Time {
	sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	var out []Time
	for _, t := range ts {
		if len(out) == 0 || out[len(out)-1] != t {
			out = append(out, t)
		}
	}
	return out
}

// TestShardGroupHorizon pins Horizon's min-combination semantics.
func TestShardGroupHorizon(t *testing.T) {
	g := NewShardGroup(1)
	e0, e1 := NewEngine(), NewEngine()
	f0 := Time(0)
	ok0 := false
	g.Attach(e0, 0, func() (Time, bool) { return f0, ok0 })
	g.Attach(e1, 0, nil)

	if h, ok := g.Horizon(0, false); ok {
		t.Fatalf("all floors unbounded: got bounded horizon %d", h)
	}
	if h, ok := g.Horizon(100, true); !ok || h != 100 {
		t.Fatalf("caller limit alone: got (%d,%v), want (100,true)", h, ok)
	}
	f0, ok0 = 40, true
	if h, ok := g.Horizon(100, true); !ok || h != 40 {
		t.Fatalf("floor below limit: got (%d,%v), want (40,true)", h, ok)
	}
	if h, ok := g.Horizon(0, false); !ok || h != 40 {
		t.Fatalf("floor with unbounded caller: got (%d,%v), want (40,true)", h, ok)
	}
}

// TestShardGroupPanicPropagates ensures a worker panic surfaces on the
// caller after all workers stop, not as a crashed goroutine.
func TestShardGroupPanicPropagates(t *testing.T) {
	g := NewShardGroup(2)
	for i := 0; i < 2; i++ {
		e := NewEngine()
		e.Schedule(10, func() { panic("model bug") })
		g.Attach(e, 0, nil)
	}
	defer func() {
		if r := recover(); r != "model bug" {
			t.Fatalf("recovered %v, want worker panic", r)
		}
	}()
	g.AdvanceBefore(0, false)
	t.Fatal("AdvanceBefore returned despite worker panic")
}

// TestShardGroupZeroAlloc pins the steady-state group paths at zero
// allocations: serial stepping through the shard heap, and one-worker
// windows, whose candidate walk and batch-time merge reuse group scratch.
func TestShardGroupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	g := NewShardGroup(1)
	for i := 0; i < 8; i++ {
		e := NewEngine()
		period := Time(7 + i)
		var tick func()
		tick = func() { e.Schedule(period, tick) }
		e.Schedule(0, tick)
		g.Attach(e, 0, nil)
	}
	var h Time
	round := func() {
		h += 100
		g.AdvanceBefore(h, true)
		h += 100
		g.RunUntil(h)
	}
	for i := 0; i < 10; i++ { // grow the scratch slices
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("window + serial round allocates %.1f objects/op, want 0", allocs)
	}
}
