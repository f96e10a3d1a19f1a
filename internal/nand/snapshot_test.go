package nand

import (
	"bytes"
	"testing"
)

func snapTestChip(clock *int64) *Chip {
	return NewChip(ChipConfig{
		Geometry: Geometry{
			Dies: 1, Planes: 2, BlocksPerPlane: 4, PagesPerBlock: 8, PageSize: 512,
		},
		StoreData:   true,
		WearLimit:   100,
		Reliability: TLCReliability(),
		Clock:       func() int64 { return *clock },
	})
}

// Drive a chip through programs, reads, erases, and a factory-bad mark so the
// snapshot has non-trivial state in every field.
func exerciseChip(t *testing.T, c *Chip, clock *int64) {
	t.Helper()
	c.MarkFactoryBad(Addr{Plane: 1, Block: 3})
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	for p := 0; p < 5; p++ {
		*clock += 1000
		if err := c.Program(Addr{Block: 1, Page: p}, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Accumulate read disturb on block 1.
	for i := 0; i < 40; i++ {
		if err := c.Read(Addr{Block: 1, Page: 2}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Program(Addr{Plane: 1, Block: 0, Page: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Erase(Addr{Plane: 1, Block: 0}); err != nil {
		t.Fatal(err)
	}
}

// observe probes every externally visible behaviour of the chip: page reads,
// bit-error counts under the reliability model, wear/read counters, stats.
func observe(t *testing.T, c *Chip) []byte {
	t.Helper()
	var out bytes.Buffer
	buf := make([]byte, 512)
	g := c.Geometry()
	for d := 0; d < g.Dies; d++ {
		for pl := 0; pl < g.Planes; pl++ {
			for b := 0; b < g.BlocksPerPlane; b++ {
				a := Addr{Die: d, Plane: pl, Block: b}
				out.WriteByte(byte(c.EraseCount(a)))
				out.WriteByte(byte(c.BlockReads(a)))
				for p := 0; p < g.PagesPerBlock; p++ {
					a.Page = p
					st, err := c.State(a)
					if err != nil {
						t.Fatal(err)
					}
					out.WriteByte(byte(st))
					out.WriteByte(byte(c.BitErrors(a)))
					if st == PageProgrammed {
						if err := c.Read(a, buf); err != nil {
							t.Fatal(err)
						}
						out.Write(buf)
					}
				}
			}
		}
	}
	st := c.Stats()
	out.WriteByte(byte(st.Reads))
	out.WriteByte(byte(st.Programs))
	out.WriteByte(byte(st.Erases))
	return out.Bytes()
}

// Satellite: a restored chip must be observationally identical to its source
// under the reliability model — birth stamps and read-disturb counters
// included, which BitErrors exposes via retention age and block reads.
func TestChipSnapshotRestoreEquivalence(t *testing.T) {
	var clock int64
	src := snapTestChip(&clock)
	exerciseChip(t, src, &clock)
	snap := src.Snapshot()

	dst := snapTestChip(&clock)
	// Disturb dst first so Restore must overwrite, not merge.
	if err := dst.Program(Addr{Block: 0, Page: 0}, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	dst.Restore(snap)

	// Age retention and check both chips agree at a later clock too.
	clock += 7200 * 1e9
	a, b := observe(t, src), observe(t, dst)
	if !bytes.Equal(a, b) {
		t.Fatal("restored chip diverges from source")
	}

	// The snapshot must be isolated from both chips: mutate src and dst,
	// restore a third chip, compare against the state at capture time.
	if err := src.Erase(Addr{Block: 1}); err != nil {
		t.Fatal(err)
	}
	if err := dst.Erase(Addr{Block: 1}); err != nil {
		t.Fatal(err)
	}
	third := snapTestChip(&clock)
	third.Restore(snap)
	if third.EraseCount(Addr{Block: 1}) != 0 || src.EraseCount(Addr{Block: 1}) != 1 {
		t.Fatal("snapshot shares state with a chip")
	}
	// Factory-bad marks survive.
	if err := third.Erase(Addr{Plane: 1, Block: 3}); err == nil {
		t.Fatal("factory-bad mark lost across Restore")
	}

	// Divergence after restore stays independent: programming dst must not
	// affect src's disturb counters.
	preReads := src.BlockReads(Addr{Plane: 1, Block: 1})
	if err := dst.Read(Addr{Block: 2, Page: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if src.BlockReads(Addr{Plane: 1, Block: 1}) != preReads {
		t.Fatal("post-restore reads leak between chips")
	}
}

func TestChipRestoreGeometryMismatch(t *testing.T) {
	var clock int64
	src := snapTestChip(&clock)
	snap := src.Snapshot()
	other := NewChip(ChipConfig{
		Geometry: Geometry{Dies: 1, Planes: 1, BlocksPerPlane: 2, PagesPerBlock: 4, PageSize: 256},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Restore across geometries must panic")
		}
	}()
	other.Restore(snap)
}

// TestNonPowerOfTwoPageSizeRoundTrip pins that the payload store, whose
// chunk length is 64 pages and so not a power of two when the page size is
// not, keeps every page's payload across snapshot and restore, including
// the pages on either side of each chunk boundary.
func TestNonPowerOfTwoPageSizeRoundTrip(t *testing.T) {
	g := Geometry{Dies: 1, Planes: 2, BlocksPerPlane: 4, PagesPerBlock: 32, PageSize: 6144}
	newChip := func() *Chip { return NewChip(ChipConfig{Geometry: g, StoreData: true}) }
	payload := func(idx int64) []byte {
		p := make([]byte, g.PageSize)
		for i := range p {
			p[i] = byte(int64(i)*7 + idx*13 + 1)
		}
		return p
	}
	src := newChip()
	for idx := int64(0); idx < g.Pages(); idx++ {
		if err := src.Program(g.AddrOf(idx), payload(idx)); err != nil {
			t.Fatal(err)
		}
	}
	snap := src.Snapshot()
	// Rewrite one block of the source after the snapshot: the image must
	// not see it.
	if err := src.Erase(Addr{Block: 2}); err != nil {
		t.Fatal(err)
	}
	if err := src.Program(Addr{Block: 2}, make([]byte, g.PageSize)); err != nil {
		t.Fatal(err)
	}
	dst := newChip()
	dst.Restore(snap)
	buf := make([]byte, g.PageSize)
	for idx := int64(0); idx < g.Pages(); idx++ {
		if err := dst.Read(g.AddrOf(idx), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload(idx)) {
			t.Fatalf("page %d: restored payload differs from the programmed one", idx)
		}
	}
}
