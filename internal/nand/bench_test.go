package nand

import "testing"

func benchChip(storeData bool) *Chip {
	return NewChip(ChipConfig{
		Geometry:  Geometry{Dies: 1, Planes: 2, BlocksPerPlane: 64, PagesPerBlock: 64, PageSize: 4096},
		StoreData: storeData,
	})
}

// Erase is the hot path the FillRange rewrite targets: payload chunks drop
// to nil instead of being zeroed byte by byte, and page states, derived from
// the program cursor, cost one counter reset.
func BenchmarkChipErase(b *testing.B) {
	for _, sd := range []struct {
		name string
		on   bool
	}{{"meta-only", false}, {"with-payloads", true}} {
		b.Run(sd.name, func(b *testing.B) {
			c := benchChip(sd.on)
			payload := make([]byte, 4096)
			a := Addr{Block: 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := 0; p < 8; p++ {
					a.Page = p
					if err := c.Program(a, payload); err != nil {
						b.Fatal(err)
					}
				}
				a.Page = 0
				if err := c.Erase(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Read of a programmed page with payload storage off: the buffer must come
// back zeroed (clear(buf), previously an open-coded loop).
func BenchmarkChipReadMiss(b *testing.B) {
	c := benchChip(false)
	payload := make([]byte, 4096)
	if err := c.Program(Addr{Block: 3}, payload); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	a := Addr{Block: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Read(a, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Payload store put/read round-trip through the COW chunked array.
func BenchmarkStorePutRead(b *testing.B) {
	c := benchChip(true)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	buf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Addr{Block: int(i) % 64, Page: 0}
		_ = c.Erase(a)
		if err := c.Program(a, payload); err != nil {
			b.Fatal(err)
		}
		if err := c.Read(a, buf); err != nil {
			b.Fatal(err)
		}
	}
}
