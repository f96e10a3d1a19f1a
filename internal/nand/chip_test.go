package nand

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testGeom() Geometry {
	return Geometry{Dies: 2, Planes: 2, BlocksPerPlane: 8, PagesPerBlock: 16, PageSize: 512, OOBSize: 16}
}

func TestGeometryValidate(t *testing.T) {
	if err := testGeom().Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := testGeom()
	bad.Dies = 0
	if bad.Validate() == nil {
		t.Error("zero dies accepted")
	}
	bad = testGeom()
	bad.PageSize = -1
	if bad.Validate() == nil {
		t.Error("negative page size accepted")
	}
}

func TestGeometryCounts(t *testing.T) {
	g := testGeom()
	if got, want := g.Pages(), int64(2*2*8*16); got != want {
		t.Errorf("Pages = %d, want %d", got, want)
	}
	if got, want := g.Blocks(), int64(2*2*8); got != want {
		t.Errorf("Blocks = %d, want %d", got, want)
	}
	if got, want := g.Pages()*int64(g.PageSize), int64(2*2*8*16*512); got != want {
		t.Errorf("data bytes = %d, want %d", got, want)
	}
}

// Property: PageIndex and AddrOf are inverse bijections over the package.
func TestPageIndexRoundTrip(t *testing.T) {
	g := testGeom()
	seen := make(map[int64]bool)
	for d := 0; d < g.Dies; d++ {
		for p := 0; p < g.Planes; p++ {
			for b := 0; b < g.BlocksPerPlane; b++ {
				for pg := 0; pg < g.PagesPerBlock; pg++ {
					a := Addr{d, p, b, pg}
					idx := g.PageIndex(a)
					if idx < 0 || idx >= g.Pages() {
						t.Fatalf("index %d out of range for %v", idx, a)
					}
					if seen[idx] {
						t.Fatalf("duplicate index %d for %v", idx, a)
					}
					seen[idx] = true
					if back := g.AddrOf(idx); back != a {
						t.Fatalf("AddrOf(PageIndex(%v)) = %v", a, back)
					}
				}
			}
		}
	}
}

func TestRowAddressRoundTripProperty(t *testing.T) {
	g := testGeom()
	f := func(raw uint32) bool {
		row := raw % uint32(g.Pages())
		return g.RowAddress(g.AddrOf(int64(row))) == row
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProgramReadBack(t *testing.T) {
	c := NewChip(ChipConfig{Geometry: testGeom(), StoreData: true})
	a := Addr{Die: 1, Plane: 0, Block: 3, Page: 0}
	data := bytes.Repeat([]byte{0xAB}, 512)
	if err := c.Program(a, data); err != nil {
		t.Fatalf("Program: %v", err)
	}
	buf := make([]byte, 512)
	if err := c.Read(a, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("read back differs from programmed data")
	}
}

func TestReadErasedPageIsFF(t *testing.T) {
	c := NewChip(ChipConfig{Geometry: testGeom(), StoreData: true})
	buf := make([]byte, 512)
	if err := c.Read(Addr{}, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	for _, b := range buf {
		if b != 0xFF {
			t.Fatal("erased page did not read as 0xFF")
		}
	}
}

func TestOverwriteRejected(t *testing.T) {
	c := NewChip(ChipConfig{Geometry: testGeom()})
	a := Addr{}
	if err := c.Program(a, nil); err != nil {
		t.Fatalf("first program: %v", err)
	}
	if err := c.Program(a, nil); !errors.Is(err, ErrOverwrite) {
		t.Errorf("overwrite err = %v, want ErrOverwrite", err)
	}
}

func TestOutOfOrderProgramRejected(t *testing.T) {
	c := NewChip(ChipConfig{Geometry: testGeom()})
	if err := c.Program(Addr{Page: 1}, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order err = %v, want ErrOutOfOrder", err)
	}
}

// TestProgramErrorOrder pins which error Program reports on each kind of
// page, before and after the block is erased: ErrOverwrite below the
// program cursor, then ErrWornOut on a factory-bad block, then
// ErrOutOfOrder above the cursor. A page's state is derived from the
// cursor, so State must agree with the outcome on every case.
func TestProgramErrorOrder(t *testing.T) {
	const (
		blk = 1 // pages 0..2 programmed, then optionally erased
		bad = 3 // factory bad
	)
	setup := func(t *testing.T, erased bool) *Chip {
		c := NewChip(ChipConfig{Geometry: testGeom()})
		c.MarkFactoryBad(Addr{Block: bad})
		for p := 0; p < 3; p++ {
			if err := c.Program(Addr{Block: blk, Page: p}, nil); err != nil {
				t.Fatalf("program page %d: %v", p, err)
			}
		}
		if erased {
			if err := c.Erase(Addr{Block: blk}); err != nil {
				t.Fatalf("erase: %v", err)
			}
			if err := c.Erase(Addr{Block: bad}); !errors.Is(err, ErrWornOut) {
				t.Fatalf("erase of factory-bad block = %v, want ErrWornOut", err)
			}
		}
		return c
	}
	cases := []struct {
		name   string
		erased bool
		a      Addr
		before PageState
		want   error
	}{
		{"erased at cursor", false, Addr{Block: blk, Page: 3}, PageErased, nil},
		{"programmed first page", false, Addr{Block: blk, Page: 0}, PageProgrammed, ErrOverwrite},
		{"programmed last page", false, Addr{Block: blk, Page: 2}, PageProgrammed, ErrOverwrite},
		{"skipped ahead", false, Addr{Block: blk, Page: 5}, PageErased, ErrOutOfOrder},
		{"factory-bad at cursor", false, Addr{Block: bad, Page: 0}, PageErased, ErrWornOut},
		{"factory-bad skipped ahead", false, Addr{Block: bad, Page: 4}, PageErased, ErrWornOut},
		{"erased at cursor after erase", true, Addr{Block: blk, Page: 0}, PageErased, nil},
		{"once programmed, skipped ahead after erase", true, Addr{Block: blk, Page: 2}, PageErased, ErrOutOfOrder},
		{"skipped ahead after erase", true, Addr{Block: blk, Page: 5}, PageErased, ErrOutOfOrder},
		{"factory-bad after erase", true, Addr{Block: bad, Page: 0}, PageErased, ErrWornOut},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := setup(t, tc.erased)
			if st, err := c.State(tc.a); err != nil || st != tc.before {
				t.Fatalf("State before = %v, %v; want %v", st, err, tc.before)
			}
			err := c.Program(tc.a, nil)
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("Program = %v, want %v", err, tc.want)
			}
			after := tc.before
			if err == nil {
				after = PageProgrammed
			}
			if st, err := c.State(tc.a); err != nil || st != after {
				t.Errorf("State after = %v, %v; want %v", st, err, after)
			}
		})
	}
}

func TestEraseResetsBlock(t *testing.T) {
	c := NewChip(ChipConfig{Geometry: testGeom(), StoreData: true})
	a := Addr{Block: 2}
	for p := 0; p < 16; p++ {
		if err := c.Program(Addr{Block: 2, Page: p}, nil); err != nil {
			t.Fatalf("Program page %d: %v", p, err)
		}
	}
	if err := c.Erase(a); err != nil {
		t.Fatalf("Erase: %v", err)
	}
	st, err := c.State(Addr{Block: 2, Page: 5})
	if err != nil || st != PageErased {
		t.Errorf("page state after erase = %v, %v; want PageErased", st, err)
	}
	if err := c.Program(Addr{Block: 2, Page: 0}, nil); err != nil {
		t.Errorf("program after erase: %v", err)
	}
	if got := c.EraseCount(a); got != 1 {
		t.Errorf("EraseCount = %d, want 1", got)
	}
}

func TestWearLimit(t *testing.T) {
	c := NewChip(ChipConfig{Geometry: testGeom(), WearLimit: 2})
	a := Addr{}
	for i := 0; i < 2; i++ {
		if err := c.Erase(a); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if err := c.Erase(a); !errors.Is(err, ErrWornOut) {
		t.Errorf("erase past wear limit err = %v, want ErrWornOut", err)
	}
}

func TestOutOfRange(t *testing.T) {
	c := NewChip(ChipConfig{Geometry: testGeom()})
	if err := c.Program(Addr{Die: 99}, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v, want ErrOutOfRange", err)
	}
	if err := c.Read(Addr{Block: -1}, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v, want ErrOutOfRange", err)
	}
}

func TestSizeMismatch(t *testing.T) {
	c := NewChip(ChipConfig{Geometry: testGeom()})
	if err := c.Program(Addr{}, make([]byte, 13)); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("err = %v, want ErrSizeMismatch", err)
	}
}

func TestStatsCount(t *testing.T) {
	c := NewChip(ChipConfig{Geometry: testGeom()})
	_ = c.Program(Addr{}, nil)
	_ = c.Read(Addr{}, nil)
	_ = c.Read(Addr{}, nil)
	_ = c.Erase(Addr{})
	s := c.Stats()
	if s.Programs != 1 || s.Reads != 2 || s.Erases != 1 {
		t.Errorf("stats = %+v, want 1/2/1", s)
	}
}

// Property: a random in-order workload of program/erase cycles never
// violates chip invariants, and the programmed-page count always equals the
// sum of per-block cursors.
func TestChipInvariantsUnderRandomWorkload(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Geometry{Dies: 1, Planes: 2, BlocksPerPlane: 4, PagesPerBlock: 8, PageSize: 64}
		c := NewChip(ChipConfig{Geometry: g})
		next := make([]int, g.Blocks())
		for op := 0; op < 500; op++ {
			blk := rng.Intn(int(g.Blocks()))
			ba := g.BlockAddrOf(int64(blk))
			if next[blk] < g.PagesPerBlock && rng.Intn(4) != 0 {
				a := ba
				a.Page = next[blk]
				if err := c.Program(a, nil); err != nil {
					return false
				}
				next[blk]++
			} else {
				if err := c.Erase(ba); err != nil {
					return false
				}
				next[blk] = 0
			}
		}
		programmed := 0
		for i := int64(0); i < g.Pages(); i++ {
			st, _ := c.State(g.AddrOf(i))
			if st == PageProgrammed {
				programmed++
			}
		}
		sum := 0
		for _, n := range next {
			sum += n
		}
		return programmed == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
