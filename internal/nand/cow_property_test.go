package nand

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The COW conversion's correctness contract is observational: a chip whose
// snapshots alias chunks must be byte-indistinguishable from a fresh chip
// that replays, from scratch, every mutation that produced the COW chip's
// current state. This property test drives a COW chip through a random
// interleaving of program/read/erase/Snapshot/Restore/clone — including
// double-clone, write-after-share, and share-after-write orders — while
// recording the current state's history: each mutation with the clock it
// ran at, and each observation's reads. A snapshot keeps the history up to
// its capture and a restore adopts it. After every restore and at the end a
// fresh chip replays the history and must observe identically. Run it under
// -race: the shared chunks crossing chips are exactly the aliasing the
// detector would flag if any write touched them.
func TestChipCowVsDeepCopyProperty(t *testing.T) {
	type stepKind uint8
	const (
		stepProgram stepKind = iota
		stepRead
		stepErase
		stepObserve // observe's reads
	)
	// step is one recorded mutation and whether the COW chip accepted it.
	type step struct {
		kind    stepKind
		clock   int64
		addr    Addr
		payload []byte
		ok      bool
	}
	type snap struct {
		state *ChipState
		hist  []step
	}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var clock int64
			mk := func() *Chip { return snapTestChip(&clock) }
			apply := func(c *Chip, s step) error {
				switch s.kind {
				case stepProgram:
					return c.Program(s.addr, s.payload)
				case stepRead:
					return c.Read(s.addr, nil)
				case stepErase:
					return c.Erase(s.addr)
				}
				observe(t, c)
				return nil
			}

			cowChip := mk()
			var hist []step // the COW chip's current state, from a fresh chip
			var snaps []snap
			rng := rand.New(rand.NewSource(seed))
			g := cowChip.Geometry()

			randAddr := func() Addr {
				return Addr{
					Die:   rng.Intn(g.Dies),
					Plane: rng.Intn(g.Planes),
					Block: rng.Intn(g.BlocksPerPlane),
					Page:  rng.Intn(g.PagesPerBlock),
				}
			}
			// do applies one mutation to the COW chip and records it with
			// its outcome (out-of-order programs and worn-out erases fail).
			do := func(s step) {
				s.clock = clock
				s.ok = apply(cowChip, s) == nil
				hist = append(hist, s)
			}
			// replay builds a fresh chip from hist, each step at the clock
			// it first ran at, and insists every step has its recorded
			// outcome.
			replay := func(hist []step) *Chip {
				now := clock
				defer func() { clock = now }()
				c := mk()
				for i, s := range hist {
					clock = s.clock
					if ok := apply(c, s) == nil; ok != s.ok {
						t.Fatalf("replayed step %d (%+v): ok = %v, COW chip %v", i, s, ok, s.ok)
					}
				}
				return c
			}
			check := func(when string) {
				want := observe(t, replay(hist))
				got := observe(t, cowChip)
				hist = append(hist, step{kind: stepObserve, clock: clock, ok: true})
				if !bytes.Equal(got, want) {
					t.Fatalf("cow chip diverges from its replayed history %s", when)
				}
			}

			for op := 0; op < 400; op++ {
				switch k := rng.Intn(100); {
				case k < 35: // program (often rejected: out of order)
					payload := make([]byte, g.PageSize)
					rng.Read(payload)
					clock += 100
					do(step{kind: stepProgram, addr: randAddr(), payload: payload})
				case k < 55: // read (accumulates disturb counters)
					do(step{kind: stepRead, addr: randAddr()})
				case k < 70: // erase a whole block
					a := randAddr()
					a.Page = 0
					do(step{kind: stepErase, addr: a})
				case k < 85: // share-after-write: seal the current state
					snaps = append(snaps, snap{cowChip.Snapshot(), slices.Clip(hist)})
				default: // write-after-share: restore or clone an old image
					if len(snaps) == 0 {
						continue
					}
					s := snaps[rng.Intn(len(snaps))]
					if rng.Intn(2) == 0 {
						// double-clone: a fresh chip joins the sharing set
						// and replaces the current one.
						cowChip = mk()
					}
					cowChip.Restore(s.state)
					hist = s.hist
					check("after restore")
				}
			}
			clock += 3600 * 1e9 // retention aging must agree too
			check("at end")

			// The images must have survived every mutation since capture:
			// restore each into a fresh chip and compare with its replay.
			for i, s := range snaps {
				c := mk()
				c.Restore(s.state)
				if !bytes.Equal(observe(t, c), observe(t, replay(s.hist))) {
					t.Fatalf("retained snapshot %d diverges from its replayed history", i)
				}
			}
		})
	}
}

// Concurrent clones from one sealed image: cells on the runner pool restore
// one cached DeviceState into many drives from different goroutines. Under
// -race this fails if Restore writes anything reachable from another clone —
// the design holds because restore only reads the image and share bits are
// per-chip.
func TestChipConcurrentCloneRace(t *testing.T) {
	var clock int64
	src := snapTestChip(&clock)
	exerciseChip(t, src, &clock)
	snap := src.Snapshot()

	var wg sync.WaitGroup
	digests := make([][]byte, 8)
	for i := range digests {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := snapTestChip(&clock)
			c.Restore(snap)
			// Diverge immediately: every clone programs and erases its own
			// pattern, forcing COW copies of chunks the others still share.
			payload := make([]byte, 512)
			for j := range payload {
				payload[j] = byte(i)
			}
			for p := 0; p < 4; p++ {
				if err := c.Program(Addr{Block: 2, Page: p}, payload); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.Erase(Addr{Plane: 1, Block: 1}); err != nil {
				t.Error(err)
				return
			}
			var out bytes.Buffer
			buf := make([]byte, 512)
			for p := 0; p < 4; p++ {
				if err := c.Read(Addr{Block: 2, Page: p}, buf); err != nil {
					t.Error(err)
					return
				}
				out.Write(buf)
			}
			digests[i] = out.Bytes()
		}()
	}
	// The source keeps running while clones restore from its sealed image.
	for i := 0; i < 100; i++ {
		if err := src.Read(Addr{Block: 1, Page: 2}, nil); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()

	for i, d := range digests {
		want := bytes.Repeat([]byte{byte(i)}, 512*4)
		if !bytes.Equal(d, want) {
			t.Fatalf("clone %d read back foreign bytes", i)
		}
	}
}
