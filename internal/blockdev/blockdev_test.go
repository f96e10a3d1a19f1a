package blockdev

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRAMDiskReadBack(t *testing.T) {
	d := NewRAMDisk(1<<20, 512)
	data := bytes.Repeat([]byte{0x7E}, 1024)
	if err := d.WriteAt(data, 4096); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	buf := make([]byte, 1024)
	if err := d.ReadAt(buf, 4096); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("read back mismatch")
	}
}

func TestRAMDiskUnwrittenReadsZero(t *testing.T) {
	d := NewRAMDisk(1<<20, 512)
	buf := bytes.Repeat([]byte{0xAA}, 512)
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten sector not zero")
		}
	}
}

func TestBoundsAndAlignment(t *testing.T) {
	d := NewRAMDisk(4096, 512)
	if err := d.WriteAt(make([]byte, 512), 4096); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("out-of-bounds err = %v", err)
	}
	if err := d.WriteAt(make([]byte, 512), 100); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned err = %v", err)
	}
	if err := d.ReadAt(make([]byte, 100), 0); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned len err = %v", err)
	}
	if err := d.ReadAt(make([]byte, 512), -512); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("negative off err = %v", err)
	}
}

func TestTrim(t *testing.T) {
	d := NewRAMDisk(1<<20, 512)
	if err := d.WriteAt(bytes.Repeat([]byte{1}, 2048), 0); err != nil {
		t.Fatal(err)
	}
	if got := len(d.sectors); got != 4 {
		t.Fatalf("populated = %d, want 4", got)
	}
	if err := d.Trim(512, 1024); err != nil {
		t.Fatal(err)
	}
	if got := len(d.sectors); got != 2 {
		t.Errorf("populated after trim = %d, want 2", got)
	}
	buf := make([]byte, 512)
	if err := d.ReadAt(buf, 512); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Error("trimmed sector not zeroed")
	}
}

func TestInvalidConstructionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid dimensions did not panic")
		}
	}()
	NewRAMDisk(1000, 512)
}

// Property: a RAMDisk behaves identically to a flat byte array under random
// aligned reads and writes.
func TestRAMDiskMatchesFlatArrayProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size, sector = 64 * 1024, 512
		d := NewRAMDisk(size, sector)
		oracle := make([]byte, size)
		for op := 0; op < 100; op++ {
			nsec := rng.Intn(4) + 1
			off := int64(rng.Intn(size/sector-nsec)) * sector
			n := nsec * sector
			if rng.Intn(2) == 0 {
				p := make([]byte, n)
				rng.Read(p)
				if d.WriteAt(p, off) != nil {
					return false
				}
				copy(oracle[off:], p)
			} else {
				p := make([]byte, n)
				if d.ReadAt(p, off) != nil {
					return false
				}
				if !bytes.Equal(p, oracle[off:off+int64(n)]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOpKindStrings(t *testing.T) {
	for _, k := range []OpKind{OpRead, OpWrite, OpTrim, OpFlush} {
		if k.String() == "?" {
			t.Errorf("missing name for kind %d", k)
		}
	}
}
