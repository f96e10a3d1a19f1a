package fsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

func memDisk() *MemDisk { return &MemDisk{Cap: 64 << 20} }

func newFSes(t *testing.T) []FS {
	t.Helper()
	return []FS{NewExtFS(memDisk()), NewLogFS(memDisk())}
}

func TestCreateWriteStatDelete(t *testing.T) {
	for _, fs := range newFSes(t) {
		t.Run(fs.Name(), func(t *testing.T) {
			if err := fs.Create("f"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Create("f"); err != ErrExists {
				t.Errorf("duplicate create err = %v", err)
			}
			if err := fs.Write("f", 0, 100_000); err != nil {
				t.Fatal(err)
			}
			info, err := fs.Stat("f")
			if err != nil || info.Size != 100_000 {
				t.Fatalf("stat = %+v, %v", info, err)
			}
			if got := fs.UsedBytes(); got != 100_000 {
				t.Errorf("UsedBytes = %d", got)
			}
			if err := fs.Read("f", 0, 100_000); err != nil {
				t.Fatal(err)
			}
			if err := fs.Delete("f"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Stat("f"); err != ErrNotFound {
				t.Errorf("stat after delete err = %v", err)
			}
			if fs.UsedBytes() != 0 {
				t.Errorf("UsedBytes after delete = %d", fs.UsedBytes())
			}
		})
	}
}

func TestOpsOnMissingFile(t *testing.T) {
	for _, fs := range newFSes(t) {
		if fs.Write("nope", 0, 4096) != ErrNotFound ||
			fs.Read("nope", 0, 4096) != ErrNotFound ||
			fs.Append("nope", 4096) != ErrNotFound ||
			fs.Delete("nope") != ErrNotFound {
			t.Errorf("%s: missing-file ops did not return ErrNotFound", fs.Name())
		}
	}
}

func TestAppendGrows(t *testing.T) {
	for _, fs := range newFSes(t) {
		_ = fs.Create("a")
		_ = fs.Append("a", 10_000)
		_ = fs.Append("a", 10_000)
		info, _ := fs.Stat("a")
		if info.Size != 20_000 {
			t.Errorf("%s: size = %d, want 20000", fs.Name(), info.Size)
		}
	}
}

func TestNoSpace(t *testing.T) {
	for _, mk := range []func(Disk) FS{
		func(d Disk) FS { return NewExtFS(d) },
		func(d Disk) FS { return NewLogFS(d) },
	} {
		fs := mk(&MemDisk{Cap: 16 << 20})
		_ = fs.Create("big")
		err := fs.Write("big", 0, 32<<20)
		if err != ErrNoSpace {
			t.Errorf("%s: overfill err = %v, want ErrNoSpace", fs.Name(), err)
		}
	}
}

func TestExtFSInPlaceOverwrite(t *testing.T) {
	d := memDisk()
	fs := NewExtFS(d)
	_ = fs.Create("f")
	_ = fs.Write("f", 0, 64*4096)
	w0 := d.BytesWritten
	// Overwrite: no allocation, same data volume + metadata.
	_ = fs.Write("f", 0, 64*4096)
	delta := d.BytesWritten - w0
	if delta > 64*4096+3*4096 {
		t.Errorf("overwrite wrote %d bytes, expected in-place", delta)
	}
	if fs.FragmentationScore() != 1 {
		t.Errorf("fresh sequential file fragmented: %v", fs.FragmentationScore())
	}
}

func TestExtFSFragmentsAfterChurn(t *testing.T) {
	d := memDisk()
	fs := NewExtFS(d)
	st := Age(fs, AgeA, 1)
	if st.Ops == 0 {
		t.Fatal("aging did nothing")
	}
	// New file allocated after churn should span multiple extents.
	_ = fs.Create("post")
	if err := fs.Write("post", 0, 256*4096); err != nil {
		t.Fatalf("post-aging write: %v", err)
	}
	if fs.FragmentationScore() < 1.05 {
		t.Errorf("no fragmentation after AgeA churn: score %v", fs.FragmentationScore())
	}
}

func TestLogFSCleanerReclaims(t *testing.T) {
	d := memDisk()
	fs := NewLogFS(d)
	_ = fs.Create("f")
	if err := fs.Write("f", 0, 16<<20); err != nil {
		t.Fatal(err)
	}
	// Overwrite the file several times: segments fill, cleaner must run
	// or free segments must be reclaimed via invalidation.
	for i := 0; i < 6; i++ {
		if err := fs.Write("f", 0, 16<<20); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	if len(fs.freeSegs) == 0 {
		t.Error("no free segments after sustained overwrite")
	}
	if d.Trims == 0 {
		t.Error("cleaner never trimmed a segment")
	}
}

func TestLogFSSequentialWritePattern(t *testing.T) {
	// LogFS writes are 4KB appends to the log — sequential on disk even
	// when the file is overwritten randomly. Node updates batch until the
	// next checkpoint (Sync).
	d := memDisk()
	fs := NewLogFS(d)
	_ = fs.Create("f")
	_ = fs.Write("f", 0, 1<<20)
	_ = fs.Sync()
	rng := rand.New(rand.NewSource(3))
	w0 := d.Writes
	for i := 0; i < 100; i++ {
		off := rng.Int63n(200) * 4096
		_ = fs.Write("f", off, 4096)
	}
	// Each random 4KB overwrite = exactly 1 data block append.
	if got := d.Writes - w0; got != 100 {
		t.Errorf("writes = %d, want 100 (data block per op)", got)
	}
	w1 := d.Writes
	_ = fs.Sync()
	// Checkpoint: 1 node block (single dirty inode) + 1 NAT block + sync.
	if got := d.Writes - w1; got != 2 {
		t.Errorf("checkpoint writes = %d, want 2", got)
	}
}

func TestAgingProfiles(t *testing.T) {
	for _, p := range []AgingProfile{AgeU, AgeA, AgeM} {
		for _, fs := range newFSes(t) {
			st := Age(fs, p, 42)
			if p == AgeU && st.Ops != 0 {
				t.Errorf("%s/U: ops = %d, want 0", fs.Name(), st.Ops)
			}
			if p != AgeU {
				if st.Ops == 0 {
					t.Errorf("%s/%s: aging did nothing", fs.Name(), p)
				}
				if st.Utilization < 0.3 {
					t.Errorf("%s/%s: utilization %.2f too low", fs.Name(), p, st.Utilization)
				}
			}
		}
	}
}

func TestAgingDeterministic(t *testing.T) {
	a := Age(NewExtFS(memDisk()), AgeA, 9)
	b := Age(NewExtFS(memDisk()), AgeA, 9)
	if a.Ops != b.Ops || a.FilesLeft != b.FilesLeft {
		t.Errorf("aging not deterministic: %+v vs %+v", a, b)
	}
}

type fakeClock struct{ t sim.Time }

func (c *fakeClock) Now() sim.Time { return c.t }

func TestFileserverOnMemDisk(t *testing.T) {
	for _, fs := range newFSes(t) {
		clk := &fakeClock{}
		res := Fileserver(fs, clk, 500, 1)
		if res.Ops != 500 {
			t.Errorf("%s: ops = %d", fs.Name(), res.Ops)
		}
		if res.FS != fs.Name() {
			t.Errorf("result FS = %q", res.FS)
		}
	}
}

// Integration: the full Figure 1 pipeline on a real simulated SSD.
func TestFileserverOnSSD(t *testing.T) {
	cfg := ssd.S64()
	cfg.Geometry.BlocksPerPlane = 24
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	disk := SSDDisk{Dev: dev}
	fs := NewLogFS(disk)
	Age(fs, AgeA, 5)
	res := Fileserver(fs, dev.Engine(), 300, 2)
	if res.Ops != 300 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Duration <= 0 {
		t.Error("no simulated time elapsed")
	}
	if res.OpsPerSecond() <= 0 {
		t.Error("no throughput")
	}
	if dev.FTL().Counters().PagesProgrammed() == 0 {
		t.Error("SSD saw no writes")
	}
}

// Property: used bytes equal the sum of file sizes on both file systems
// under random operation sequences.
func TestUsedBytesConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, fs := range []FS{NewExtFS(&MemDisk{Cap: 32 << 20}), NewLogFS(&MemDisk{Cap: 32 << 20})} {
			names := []string{}
			for op := 0; op < 120; op++ {
				switch rng.Intn(4) {
				case 0:
					n := string(rune('a'+len(names)%26)) + string(rune('0'+op%10)) + fs.Name()
					if fs.Create(n) == nil {
						names = append(names, n)
					}
				case 1, 2:
					if len(names) > 0 {
						_ = fs.Append(names[rng.Intn(len(names))], int64(rng.Intn(20)+1)*4096)
					}
				case 3:
					if len(names) > 1 {
						i := rng.Intn(len(names))
						if fs.Delete(names[i]) == nil {
							names = append(names[:i], names[i+1:]...)
						}
					}
				}
			}
			var sum int64
			for _, n := range fs.Files() {
				info, err := fs.Stat(n)
				if err != nil {
					return false
				}
				sum += info.Size
			}
			if sum != fs.UsedBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestVarmailAndWebserver(t *testing.T) {
	for _, fs := range newFSes(t) {
		clk := &fakeClock{}
		vm := Varmail(fs, clk, 400, 3)
		if vm.Ops != 400 {
			t.Errorf("%s varmail ops = %d", fs.Name(), vm.Ops)
		}
		ws := Webserver(fs, clk, 400, 3)
		if ws.Ops != 400 {
			t.Errorf("%s webserver ops = %d", fs.Name(), ws.Ops)
		}
	}
}

func TestPersonalitiesOnSSD(t *testing.T) {
	cfg := ssd.S64()
	cfg.Geometry.BlocksPerPlane = 16
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	fs := NewLogFS(SSDDisk{Dev: dev})
	res := Varmail(fs, dev.Engine(), 200, 5)
	if res.OpsPerSecond() <= 0 {
		t.Error("varmail made no progress on SSD")
	}
	// Varmail's fsync-per-delivery pattern must produce many more device
	// flushes than its op count alone would suggest.
	if dev.FTL().Counters().PagesProgrammed() == 0 {
		t.Error("no flash writes")
	}
}
