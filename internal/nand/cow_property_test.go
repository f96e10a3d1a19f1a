package nand

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ssdtp/internal/cow"
)

// The COW conversion's correctness contract is observational: a chip whose
// snapshots alias chunks must be byte-indistinguishable from one whose
// snapshots deep-copy. This property test drives a COW chip and a deep-copy
// reference chip (cow.SetDeepCopy toggled around every Snapshot/Restore)
// through the same random interleaving of program/read/erase/Snapshot/
// Restore/clone — including double-clone, write-after-share, and
// share-after-write orders — and compares full-state digests after every
// restore and at the end. Run it under -race: the shared chunks crossing
// chips are exactly the aliasing the detector would flag if any write
// touched them.
func TestChipCowVsDeepCopyProperty(t *testing.T) {
	defer cow.SetDeepCopy(false)
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var clock int64
			mk := func() *Chip { return snapTestChip(&clock) }

			cowChip, refChip := mk(), mk()
			// snapshot pairs captured so far: [i][0] from the COW chip,
			// [i][1] from the deep-copy reference.
			var snaps [][2]*ChipState
			rng := rand.New(rand.NewSource(seed))
			g := cowChip.Geometry()
			payload := make([]byte, g.PageSize)

			randAddr := func() Addr {
				return Addr{
					Die:   rng.Intn(g.Dies),
					Plane: rng.Intn(g.Planes),
					Block: rng.Intn(g.BlocksPerPlane),
					Page:  rng.Intn(g.PagesPerBlock),
				}
			}
			// both applies one mutation to both chips and insists they
			// agree on the outcome (errors included — out-of-order
			// programs and worn-out erases must fail identically).
			both := func(op func(c *Chip) error) {
				e1, e2 := op(cowChip), op(refChip)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("cow/ref divergence: %v vs %v", e1, e2)
				}
			}
			check := func(when string) {
				a, b := observe(t, cowChip), observe(t, refChip)
				if !bytes.Equal(a, b) {
					t.Fatalf("cow chip diverges from deep-copy reference %s", when)
				}
			}

			for op := 0; op < 400; op++ {
				switch k := rng.Intn(100); {
				case k < 35: // program (often rejected: out of order)
					a := randAddr()
					rng.Read(payload)
					clock += 100
					both(func(c *Chip) error { return c.Program(a, payload) })
				case k < 55: // read (accumulates disturb counters)
					a := randAddr()
					both(func(c *Chip) error { return c.Read(a, nil) })
				case k < 70: // erase a whole block
					a := randAddr()
					a.Page = 0
					both(func(c *Chip) error { return c.Erase(a) })
				case k < 85: // share-after-write: seal the current state
					cs := cowChip.Snapshot()
					cow.SetDeepCopy(true)
					rs := refChip.Snapshot()
					cow.SetDeepCopy(false)
					snaps = append(snaps, [2]*ChipState{cs, rs})
				default: // write-after-share: restore or clone an old image
					if len(snaps) == 0 {
						continue
					}
					s := snaps[rng.Intn(len(snaps))]
					if rng.Intn(2) == 0 {
						// double-clone: a fresh chip joins the sharing set
						// and replaces the current one.
						cowChip, refChip = mk(), mk()
					}
					cowChip.Restore(s[0])
					cow.SetDeepCopy(true)
					refChip.Restore(s[1])
					cow.SetDeepCopy(false)
					check("after restore")
				}
			}
			clock += 3600 * 1e9 // retention aging must agree too
			check("at end")

			// The images must have survived every mutation since capture:
			// restore each pair into fresh chips and compare.
			for i, s := range snaps {
				cc, rc := mk(), mk()
				cc.Restore(s[0])
				cow.SetDeepCopy(true)
				rc.Restore(s[1])
				cow.SetDeepCopy(false)
				a, b := observe(t, cc), observe(t, rc)
				if !bytes.Equal(a, b) {
					t.Fatalf("retained snapshot %d diverges between cow and deep-copy", i)
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
