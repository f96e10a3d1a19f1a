package ssd

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ssdtp/internal/sim"
	"ssdtp/internal/smart"
)

func tinyConfig() Config {
	cfg := MQSimBase()
	cfg.Geometry.BlocksPerPlane = 8
	cfg.StoreContent = true
	return cfg
}

func TestDeviceWriteReadRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, tinyConfig())
	data := bytes.Repeat([]byte{0xC3}, 8192)
	var wdone, rdone bool
	if err := d.WriteAsync(4096, data, 0, func() { wdone = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !wdone {
		t.Fatal("write never completed")
	}
	buf := make([]byte, 8192)
	if err := d.ReadAsync(4096, buf, 0, func() { rdone = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !rdone {
		t.Fatal("read never completed")
	}
	if !bytes.Equal(buf, data) {
		t.Error("read data mismatch")
	}
}

func TestDeviceBounds(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, tinyConfig())
	if err := d.WriteAsync(d.Size(), nil, 4096, nil); err == nil {
		t.Error("out-of-range write accepted")
	}
	if err := d.ReadAsync(100, nil, 4096, nil); err == nil {
		t.Error("unaligned read accepted")
	}
}

// Regression: FlushAsync used to have no submission-error path at all, so a
// caller flooding FLUSH commands would grow the event queue without bound and
// a blocking flush could not surface the condition. The device now bounds
// outstanding flushes and rejects the excess.
func TestFlushBacklogRejected(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, tinyConfig())
	for i := 0; i < maxOutstandingFlushes; i++ {
		if err := d.FlushAsync(nil); err != nil {
			t.Fatalf("flush %d rejected early: %v", i, err)
		}
	}
	if err := d.FlushAsync(nil); !errors.Is(err, ErrFlushBacklog) {
		t.Fatalf("flush %d: got %v, want ErrFlushBacklog", maxOutstandingFlushes, err)
	}
	// Draining the backlog re-opens the gate.
	eng.Run()
	done := false
	if err := d.FlushAsync(func() { done = true }); err != nil {
		t.Fatalf("flush after drain rejected: %v", err)
	}
	eng.Run()
	if !done {
		t.Error("post-drain flush never completed")
	}
}

// The blocking calls' contract: a submission error is the async twin's
// error, returned without running the engine; a request the engine can no
// longer complete is ErrStalled, naming the device and the op; a blocking
// call made while another waits panics. TestSyncDevImplementsBlockdev checks
// that a completed call has done its I/O.
func TestBlockingCalls(t *testing.T) {
	fillFlushes := func(d *Device) {
		for i := 0; i < maxOutstandingFlushes; i++ {
			if err := d.FlushAsync(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(d *Device)
		async func(d *Device) error
		block func(d *Device) error
	}{
		{"write/out-of-range", nil,
			func(d *Device) error { return d.WriteAsync(d.Size(), nil, 4096, nil) },
			func(d *Device) error { return d.Write(d.Size(), nil, 4096) }},
		{"write/unaligned", nil,
			func(d *Device) error { return d.WriteAsync(100, nil, 4096, nil) },
			func(d *Device) error { return d.Write(100, nil, 4096) }},
		{"read/out-of-range", nil,
			func(d *Device) error { return d.ReadAsync(d.Size(), nil, 4096, nil) },
			func(d *Device) error { return d.Read(d.Size(), nil, 4096) }},
		{"read/unaligned", nil,
			func(d *Device) error { return d.ReadAsync(0, nil, 100, nil) },
			func(d *Device) error { return d.Read(0, nil, 100) }},
		{"trim/out-of-range", nil,
			func(d *Device) error { return d.TrimAsync(-4096, 4096, nil) },
			func(d *Device) error { return d.Trim(-4096, 4096) }},
		{"trim/unaligned", nil,
			func(d *Device) error { return d.TrimAsync(4096, 100, nil) },
			func(d *Device) error { return d.Trim(4096, 100) }},
		{"flush/backlog", fillFlushes,
			func(d *Device) error { return d.FlushAsync(nil) },
			func(d *Device) error { return d.Flush() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			d := NewDevice(eng, tinyConfig())
			if tc.setup != nil {
				tc.setup(d)
			}
			want := tc.async(d)
			if want == nil {
				t.Fatal("async twin accepted the request")
			}
			now, pending := eng.Now(), eng.Pending()
			err := tc.block(d)
			if err == nil || err.Error() != want.Error() || errors.Is(want, ErrFlushBacklog) != errors.Is(err, ErrFlushBacklog) {
				t.Fatalf("blocking call = %v, async twin = %v", err, want)
			}
			if eng.Now() != now || eng.Pending() != pending {
				t.Errorf("engine moved: now %d → %d, pending %d → %d", now, eng.Now(), pending, eng.Pending())
			}
			// The rejected call released the device for the next one.
			eng.Run()
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("stall", func(t *testing.T) {
		d := NewDevice(sim.NewEngine(), tinyConfig())
		d.block() // armed with nothing submitted: done can never be set
		err := d.await("flush", nil)
		if !errors.Is(err, ErrStalled) || !strings.Contains(err.Error(), d.Name()+" flush") {
			t.Fatalf("await on a lost request = %v, want ErrStalled naming %s flush", err, d.Name())
		}
	})

	t.Run("nested-panics", func(t *testing.T) {
		d := NewDevice(sim.NewEngine(), tinyConfig())
		if err := d.WriteAsync(0, nil, 4096, func() { _ = d.Read(0, nil, 4096) }); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if recover() == nil {
				t.Error("blocking call inside a blocking call did not panic")
			}
		}()
		_ = d.Flush()
	})
}

// The device's synchronous calls do the I/O they block on: the content
// store reads back what was written and flushed, and zeros once trimmed.
func TestSyncDevImplementsBlockdev(t *testing.T) {
	d := NewDevice(sim.NewEngine(), tinyConfig())
	data := bytes.Repeat([]byte{7}, 4096)
	buf := make([]byte, 4096)
	for _, step := range []func() error{
		func() error { return d.Write(0, data, 0) },
		d.Flush,
		func() error { return d.Read(0, buf, 0) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf, data) {
		t.Error("read after write and flush returned other bytes")
	}
	if err := d.Trim(0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Error("trimmed sector not zero")
	}
}

// A blocking Flush refused for backlog returns ErrFlushBacklog instead of
// running the engine for a completion that was never scheduled; once the
// backlog drains, the next blocking Flush completes.
func TestSyncDevFlushPropagatesBacklog(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, tinyConfig())
	for i := 0; i < maxOutstandingFlushes; i++ {
		if err := d.FlushAsync(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); !errors.Is(err, ErrFlushBacklog) {
		t.Fatalf("Flush = %v, want ErrFlushBacklog", err)
	}
	eng.Run()
	before := eng.Now()
	if err := d.Flush(); err != nil {
		t.Fatalf("Flush after drain = %v", err)
	}
	if eng.Now() == before {
		t.Error("Flush after drain returned without running the engine")
	}
}

func TestSMARTCounterUnits(t *testing.T) {
	eng := sim.NewEngine()
	cfg := MX500()
	cfg.Geometry.BlocksPerPlane = 8
	d := NewDevice(eng, cfg)
	// Write 15 pages worth (one full RAIN stripe of data) sequentially.
	const total = 15 * 16384
	for off := int64(0); off < total; off += 16384 {
		if err := d.WriteAsync(off, nil, 16384, nil); err != nil {
			t.Fatal(err)
		}
	}
	d.FlushAsync(nil)
	eng.Run()
	tab := d.SMART()
	host := tab.Value(smart.AttrHostProgramPageCount)
	ftlPages := tab.Value(smart.AttrFTLProgramPageCount)
	// 15 data pages = 7 full 32KB units (integer division of 15*16K/32K).
	if host != 7 {
		t.Errorf("host NAND pages = %d, want 7", host)
	}
	// Parity (1 page) + map journal pages contribute <= a few units.
	if ftlPages < 0 || ftlPages > 4 {
		t.Errorf("FTL NAND pages = %d", ftlPages)
	}
	if got := tab.Value(smart.AttrTotalHostSectorWrites); got != total/4096 {
		t.Errorf("host sectors = %d, want %d", got, total/4096)
	}
}

// The "NAND Pages" attributes Fig. 4a divides host bytes by: 247 counts host
// data pages and 248 the FTL's own (GC, map, parity), in CounterUnitBytes.
func TestSMARTPageCountsMatchCounters(t *testing.T) {
	eng := sim.NewEngine()
	cfg := MX500()
	cfg.Geometry.BlocksPerPlane = 8
	d := NewDevice(eng, cfg)
	for off := int64(0); off < 64*16384; off += 16384 {
		if err := d.WriteAsync(off, nil, 16384, nil); err != nil {
			t.Fatal(err)
		}
	}
	d.FlushAsync(nil)
	eng.Run()
	c := d.FTL().Counters()
	tab := d.SMART()
	if c.DataPagesProgrammed == 0 {
		t.Fatal("no data pages programmed")
	}
	if got, want := tab.Value(smart.AttrHostProgramPageCount), c.DataPagesProgrammed*16384/32768; got != want {
		t.Errorf("attribute 247 = %d, want %d", got, want)
	}
	ftlPages := c.GCPagesProgrammed + c.MapPagesProgrammed + c.ParityPagesProgrammed
	if got, want := tab.Value(smart.AttrFTLProgramPageCount), ftlPages*16384/32768; got != want {
		t.Errorf("attribute 248 = %d, want %d", got, want)
	}
}

func TestModelsConstruct(t *testing.T) {
	for _, mk := range []func() Config{MX500, EVO840, Vertex2, S64, S120, MQSimBase} {
		cfg := mk()
		eng := sim.NewEngine()
		d := NewDevice(eng, cfg)
		if d.Size() <= 0 {
			t.Errorf("%s: non-positive size", cfg.Name)
		}
		// One small write+flush exercises the full path on every model.
		if err := d.WriteAsync(0, nil, 4096, nil); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		d.FlushAsync(nil)
		eng.Run()
		if d.FTL().Counters().PagesProgrammed() == 0 {
			t.Errorf("%s: nothing programmed after write+flush", cfg.Name)
		}
	}
}

// Contention integration test: concurrent random writes through a real
// array finish, maintain FTL invariants, and show queueing (later arrivals
// see longer latency than an isolated write).
func TestDeviceConcurrentWrites(t *testing.T) {
	eng := sim.NewEngine()
	cfg := tinyConfig()
	cfg.FTL.CacheBytes = 64 * 1024 // force flushes
	d := NewDevice(eng, cfg)
	rng := rand.New(rand.NewSource(5))
	nsec := d.Size() / 4096
	var completions int
	for i := 0; i < 400; i++ {
		off := rng.Int63n(nsec-2) * 4096
		if err := d.WriteAsync(off, nil, 8192, func() { completions++ }); err != nil {
			t.Fatal(err)
		}
	}
	d.FlushAsync(nil)
	eng.Run()
	if completions != 400 {
		t.Fatalf("completions = %d, want 400", completions)
	}
	if d.FTL().Counters().PagesProgrammed() == 0 {
		t.Error("no pages programmed")
	}
}

func TestEVO840UsesPSLC(t *testing.T) {
	eng := sim.NewEngine()
	cfg := EVO840()
	d := NewDevice(eng, cfg)
	for off := int64(0); off < 32*16384; off += 16384 {
		if err := d.WriteAsync(off, nil, 16384, nil); err != nil {
			t.Fatal(err)
		}
	}
	d.FlushAsync(nil)
	eng.Run()
	if d.FTL().Counters().PSLCPagesProgrammed == 0 {
		t.Error("EVO840 wrote nothing through the pSLC buffer")
	}
	if len(d.FTL().PSLCSnapshot(nil)) == 0 {
		t.Error("pSLC index empty")
	}
}

func TestWearLevelingAttribute(t *testing.T) {
	eng := sim.NewEngine()
	cfg := tinyConfig()
	d := NewDevice(eng, cfg)
	// Overwrite churn forces erases.
	for round := 0; round < 12; round++ {
		for off := int64(0); off+65536 <= d.Size()/2; off += 65536 {
			if err := d.WriteAsync(off, nil, 65536, nil); err != nil {
				t.Fatal(err)
			}
		}
		done := false
		d.FlushAsync(func() { done = true })
		eng.RunWhile(func() bool { return !done })
	}
	if got := d.SMART().Value(smart.AttrWearLevelingCount); got == 0 {
		t.Error("wear-leveling attribute never advanced despite churn")
	}
	maxE, total := d.Array().WearStats()
	if maxE == 0 || total == 0 {
		t.Errorf("wear stats = %d/%d", maxE, total)
	}
}

// scanWear is the per-block reference WearStats replaced: every block of
// every chip, read one at a time.
func scanWear(a *Array) (maxErase int, total int64) {
	for ch := 0; ch < a.Channels(); ch++ {
		for w := 0; w < a.ChipsPerChannel(); w++ {
			c := a.Chip(ch, w)
			g := c.Geometry()
			for b := int64(0); b < g.Blocks(); b++ {
				n := c.EraseCount(g.BlockAddrOf(b))
				maxErase = max(maxErase, n)
				total += int64(n)
			}
		}
	}
	return maxErase, total
}

// WearStats sums per-chip counters kept by Erase; it must agree with a scan
// of every block after random erases, and a restored device must carry the
// counters of its image, not of the device it was taken from afterwards.
func TestWearStatsMatchesBlockScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eraseSome := func(d *Device, n int) {
		a := d.Array()
		for i := 0; i < n; i++ {
			c := a.Chip(rng.Intn(a.Channels()), rng.Intn(a.ChipsPerChannel()))
			// Skew toward low blocks so the maximum is well above the mean.
			b := int64(rng.Intn(int(c.Geometry().Blocks())))
			if rng.Intn(2) == 0 {
				b /= 8
			}
			if err := c.Erase(c.Geometry().BlockAddrOf(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(what string, d *Device) {
		t.Helper()
		gotMax, gotTotal := d.Array().WearStats()
		wantMax, wantTotal := scanWear(d.Array())
		if gotMax != wantMax || gotTotal != wantTotal {
			t.Fatalf("%s: WearStats = (%d, %d), block scan = (%d, %d)", what, gotMax, gotTotal, wantMax, wantTotal)
		}
	}
	src := NewDevice(sim.NewEngine(), tinyConfig())
	check("fresh", src)
	eraseSome(src, 3000)
	check("after erases", src)
	img := src.Snapshot()
	imgMax, imgTotal := src.Array().WearStats()
	eraseSome(src, 2000)
	check("source after snapshot", src)

	dst := NewDevice(sim.NewEngine(), tinyConfig())
	dst.Restore(img)
	check("restored", dst)
	if m, n := dst.Array().WearStats(); m != imgMax || n != imgTotal {
		t.Fatalf("restored WearStats = (%d, %d), image had (%d, %d)", m, n, imgMax, imgTotal)
	}
	eraseSome(dst, 2000)
	check("restored after erases", dst)
}

func TestBootEnumeratesChips(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, tinyConfig())
	done := false
	d.Boot(func() { done = true })
	eng.RunWhile(func() bool { return !done })
	if !done {
		t.Fatal("boot never completed")
	}
	// Enumeration touched every chip: bus stats show the ID/param traffic.
	for ch := 0; ch < d.Array().Channels(); ch++ {
		if d.Array().Bus(ch).Stats().CmdCycles == 0 {
			t.Errorf("channel %d saw no enumeration traffic", ch)
		}
	}
	if d.Name() == "" || d.Engine() != eng || d.HostBytesWritten() != 0 {
		t.Error("accessors broken")
	}
	if d.Array().Chip(0, 0) == nil {
		t.Error("chip accessor broken")
	}
}
