package nand

import (
	"errors"
	"testing"
	"testing/quick"

	"ssdtp/internal/sim"
)

// BlockReads returns reads of the block containing a since its last erase.
func (c *Chip) BlockReads(a Addr) int {
	if !c.geom.Contains(Addr{Die: a.Die, Plane: a.Plane, Block: a.Block}) {
		return 0
	}
	return c.reads.At(int64(c.geom.BlockIndex(a)))
}

func TestBitErrorsGrowWithWearAndAge(t *testing.T) {
	r := TLCReliability()
	fresh := r.BitErrors(0, 0)
	worn := r.BitErrors(3000, 0)
	aged := r.BitErrors(0, 10*3600*sim.Second)
	if worn <= fresh {
		t.Errorf("wear did not increase errors: %d vs %d", worn, fresh)
	}
	if aged <= fresh {
		t.Errorf("retention did not increase errors: %d vs %d", aged, fresh)
	}
}

// Property: the error model is monotone in both wear and age.
func TestBitErrorsMonotoneProperty(t *testing.T) {
	r := TLCReliability()
	f := func(e1, e2 uint16, a1, a2 uint32) bool {
		lo, hi := int(e1), int(e2)
		if lo > hi {
			lo, hi = hi, lo
		}
		t1, t2 := sim.Time(a1)*sim.Second, sim.Time(a2)*sim.Second
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return r.BitErrors(lo, t1) <= r.BitErrors(hi, t1) &&
			r.BitErrors(lo, t1) <= r.BitErrors(lo, t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChipBitErrors(t *testing.T) {
	now := sim.Time(0)
	c := NewChip(ChipConfig{
		Geometry:    testGeom(),
		Reliability: TLCReliability(),
		Clock:       func() int64 { return now },
	})
	a := Addr{Block: 1}
	if got := c.BitErrors(a); got != 0 {
		t.Errorf("erased page errors = %d, want 0", got)
	}
	if err := c.Program(a, nil); err != nil {
		t.Fatal(err)
	}
	fresh := c.BitErrors(a)
	now += 5 * 3600 * sim.Second
	aged := c.BitErrors(a)
	if aged <= fresh {
		t.Errorf("errors did not age: %d -> %d", fresh, aged)
	}
	// Re-programming after erase resets the retention clock.
	if err := c.Erase(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Program(a, nil); err != nil {
		t.Fatal(err)
	}
	refreshed := c.BitErrors(a)
	if refreshed >= aged {
		t.Errorf("reprogram did not reset retention: %d vs %d", refreshed, aged)
	}
	// The wear term needs kilo-erase scale to register; verified directly
	// on the model in TestBitErrorsGrowWithWearAndAge.
}

func TestReliabilityRequiresClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Reliability without Clock did not panic")
		}
	}()
	NewChip(ChipConfig{Geometry: testGeom(), Reliability: TLCReliability()})
}

func TestFactoryBadBlock(t *testing.T) {
	c := NewChip(ChipConfig{Geometry: testGeom()})
	bad := Addr{Block: 2}
	c.MarkFactoryBad(bad)
	if err := c.Program(bad, nil); !errors.Is(err, ErrWornOut) {
		t.Errorf("program on factory-bad block err = %v", err)
	}
	if err := c.Erase(bad); !errors.Is(err, ErrWornOut) {
		t.Errorf("erase on factory-bad block err = %v", err)
	}
	// Neighbors unaffected.
	if err := c.Program(Addr{Block: 3}, nil); err != nil {
		t.Errorf("neighbor block: %v", err)
	}
}

func TestIDBytesReflectGeometry(t *testing.T) {
	c := NewChip(ChipConfig{Geometry: testGeom(), ID: ChipID{ManufacturerCode: 0xEC, DeviceCode: 0xD7}})
	id := c.IDBytes()
	if id[0] != 0xEC || id[1] != 0xD7 {
		t.Errorf("id = %x", id)
	}
	if id[4] != byte(testGeom().Planes<<2)|byte(testGeom().Dies) {
		t.Errorf("packed geometry byte = %#x", id[4])
	}
}

func TestParameterPageRoundTrip(t *testing.T) {
	g := testGeom()
	c := NewChip(ChipConfig{
		Geometry: g,
		ID:       ChipID{ManufacturerCode: 0x2C, Manufacturer: "MICRON", Model: "MT29F64G08"},
	})
	p := c.ParameterPage()
	parsed, ok := ParseParameterPage(p)
	if !ok {
		t.Fatal("signature missing")
	}
	if !parsed.CRCOK {
		t.Error("CRC mismatch")
	}
	if parsed.Manufacturer != "MICRON" || parsed.Model != "MT29F64G08" {
		t.Errorf("strings = %q / %q", parsed.Manufacturer, parsed.Model)
	}
	if parsed.PageBytes != g.PageSize || parsed.PagesPerBlock != g.PagesPerBlock {
		t.Errorf("geometry = %+v", parsed)
	}
	if parsed.BlocksPerLUN != g.BlocksPerPlane*g.Planes || parsed.LUNs != g.Dies {
		t.Errorf("LUN geometry = %+v", parsed)
	}
	// Corruption must break the CRC.
	p[ppPageBytes] ^= 0xFF
	parsed2, _ := ParseParameterPage(p)
	if parsed2.CRCOK {
		t.Error("corrupted page passed CRC")
	}
	if _, ok := ParseParameterPage([]byte("JUNK")); ok {
		t.Error("junk accepted as parameter page")
	}
}

func TestReadDisturbAccumulatesAndResets(t *testing.T) {
	now := sim.Time(0)
	c := NewChip(ChipConfig{
		Geometry:    testGeom(),
		Reliability: Reliability{BaseBits: 1, ReadDisturbBitsPerKiloRead: 1},
		Clock:       func() int64 { return now },
	})
	a := Addr{Block: 1}
	if err := c.Program(a, nil); err != nil {
		t.Fatal(err)
	}
	base := c.BitErrors(a)
	for i := 0; i < 2000; i++ {
		if err := c.Read(a, nil); err != nil {
			t.Fatal(err)
		}
	}
	disturbed := c.BitErrors(a)
	if disturbed != base+2 {
		t.Errorf("after 2000 reads errors = %d, want %d", disturbed, base+2)
	}
	if got := c.BlockReads(a); got != 2000 {
		t.Errorf("BlockReads = %d", got)
	}
	// Erase resets the disturb counter.
	if err := c.Erase(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Program(a, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.BlockReads(a); got != 0 {
		t.Errorf("BlockReads after erase = %d", got)
	}
}
