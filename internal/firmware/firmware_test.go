package firmware

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"ssdtp/internal/jtag"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

func TestImageObfuscationRoundTrip(t *testing.T) {
	img := BuildImage("EXT0BB6Q", []Region{{Base: 0x1000, Size: 0x100, Kind: RegionSRAM}})
	obf := Obfuscate(img)
	if bytes.Equal(obf[64:], img[64:]) {
		t.Fatal("obfuscation left the body in the clear")
	}
	plain, err := Deobfuscate(obf)
	if err != nil {
		t.Fatalf("Deobfuscate: %v", err)
	}
	if !bytes.Equal(plain, img) {
		t.Error("round trip mismatch")
	}
	if Version(plain) != "EXT0BB6Q" {
		t.Errorf("version = %q", Version(plain))
	}
}

func TestDeobfuscateRejectsCorruption(t *testing.T) {
	img := BuildImage("V1", nil)
	obf := Obfuscate(img)
	obf[len(obf)/2] ^= 0xFF
	if _, err := Deobfuscate(obf); err == nil {
		t.Error("corrupt image accepted")
	}
	if _, err := Deobfuscate([]byte("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestParseRegions(t *testing.T) {
	want := []Region{
		{Base: 0x2000_0000, Size: 0x100_0000, Kind: RegionMapArray},
		{Base: 0x4000_0000, Size: 0x1000, Kind: RegionMMIO},
	}
	img := BuildImage("V2", want)
	got, err := ParseRegions(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("regions = %+v", got)
	}
}

func TestGroundTruthArithmetic(t *testing.T) {
	// The planted numbers must reproduce the paper's: ~221 MB theoretical,
	// 264 MB actual of 512 MB.
	theoretical := int64(LogicalAddrs) * EntryBits / 8
	if mb := theoretical >> 20; mb < 210 || mb > 222 {
		t.Errorf("theoretical map = %d MiB, want ~211-221", mb)
	}
	actual := int64(MapArrays)*int64(ArrayStride) + int64(PSLCIndexSize)
	if mb := actual >> 20; mb != 264 {
		t.Errorf("actual map residency = %d MiB, want 264", mb)
	}
	if DRAMSize>>20 != 512 {
		t.Errorf("DRAM = %d MiB", DRAMSize>>20)
	}
	if ChunkCount <= 0 {
		t.Error("no chunks")
	}
}

func evoRig(t *testing.T) (*EVO840, *jtag.Debugger, *ssd.Device) {
	t.Helper()
	dev := ssd.NewDevice(sim.NewEngine(), ssd.EVO840())
	fw := New(dev)
	probe := jtag.NewProbe(jtag.NewPins(jtag.NewTAP(fw)))
	probe.Reset()
	return fw, jtag.NewDebugger(probe, fw.IRWidth()), dev
}

func TestIDCodeViaJTAG(t *testing.T) {
	_, d, _ := evoRig(t)
	if got := d.IDCode(); got != IDCode {
		t.Errorf("IDCODE = %#x, want %#x", got, IDCode)
	}
}

func TestROMReadMatchesUpdateFile(t *testing.T) {
	fw, d, _ := evoRig(t)
	plain, err := Deobfuscate(fw.UpdateFile())
	if err != nil {
		t.Fatal(err)
	}
	w := d.ReadWord(ROMBase)
	if w == 0 || w == 0xDEAD_DEAD {
		t.Errorf("ROM word = %#x", w)
	}
	// First word of ROM equals first word of the deobfuscated image.
	want := uint32(plain[0]) | uint32(plain[1])<<8 | uint32(plain[2])<<16 | uint32(plain[3])<<24
	if w != want {
		t.Errorf("ROM[0] = %#x, want %#x", w, want)
	}
}

func TestMapChunkLoadsOnDemand(t *testing.T) {
	fw, d, dev := evoRig(t)
	// Before any host I/O: array entries read as not-resident.
	if w := d.ReadWord(ArraysBase); w != 0xFFFF_FFFF {
		t.Errorf("unloaded chunk word = %#x", w)
	}
	// Touch LBA 0 through the firmware-aware path.
	if err := fw.HostWrite(0, 8, nil); err != nil {
		t.Fatal(err)
	}
	done := false
	dev.FlushAsync(func() { done = true })
	dev.Engine().RunWhile(func() bool { return !done })
	w := d.ReadWord(ArraysBase) // array 0, slot 0 = lsn 0
	if w == 0xFFFF_FFFF {
		t.Fatal("chunk did not load after host access")
	}
	if w&validFlag == 0 {
		t.Errorf("lsn 0 entry not valid: %#x", w)
	}
	// The entry's PPN matches the live FTL mapping.
	if got, want := int64(w&(validFlag-1)), dev.FTL().MapEntry(0); got != want {
		t.Errorf("entry ppn = %d, FTL says %d", got, want)
	}
	if got := d.ReadWord(MMIOBase + RegChunksLoaded); got != 1 {
		t.Errorf("chunks loaded = %d, want 1", got)
	}
}

func TestArrayInterleaveByLSBs(t *testing.T) {
	fw, d, _ := evoRig(t)
	// lsn 5 = binary 101 -> array 5, slot 0.
	fw.NoteHostAccess(5)
	addr := ArraysBase + 5*ArrayStride
	if w := d.ReadWord(addr); w == 0xFFFF_FFFF {
		t.Error("array 5 slot 0 not resident after touching lsn 5")
	}
	// lsn 8 (slot 1 of array 0) resides in the same chunk as lsn 5.
	if w := d.ReadWord(ArraysBase + 4); w == 0xFFFF_FFFF {
		t.Error("array 0 slot 1 should be resident (same chunk)")
	}
}

func TestPCSamplingReflectsCoreRoles(t *testing.T) {
	fw, d, _ := evoRig(t)
	// Idle: all cores in WFI.
	for c := 0; c < Cores; c++ {
		pc := d.PC(c)
		if pc != PCIdleBase+uint32(c)*0x20 {
			t.Errorf("idle core %d PC = %#x", c, pc)
		}
	}
	// Even-LBA traffic: core 0 (SATA) and core 1 active; core 2 idle.
	fw.NoteHostAccess(4) // lsn 4: even, channel (4>>1)&3 = 2
	pc0, pc1, pc2 := d.PC(0), d.PC(1), d.PC(2)
	if pc0 < PCSATABase || pc0 >= PCSATABase+PCHandlerLen {
		t.Errorf("core 0 PC = %#x, want SATA handler", pc0)
	}
	wantBase := PCChanBase1 + 2*PCHandlerLen
	if pc1 < wantBase || pc1 >= wantBase+PCHandlerLen {
		t.Errorf("core 1 PC = %#x, want channel-2 handler %#x", pc1, wantBase)
	}
	if pc2 != PCIdleBase+2*0x20 {
		t.Errorf("core 2 PC = %#x, want idle", pc2)
	}
	// Odd-LBA traffic activates core 2.
	fw.NoteHostAccess(7) // odd, channel 4 + (7>>1)&3 = 4+3 = 7
	pc2 = d.PC(2)
	wantBase = PCChanBase2 + 3*PCHandlerLen
	if pc2 < wantBase || pc2 >= wantBase+PCHandlerLen {
		t.Errorf("core 2 PC = %#x, want channel-7 handler %#x", pc2, wantBase)
	}
}

func TestHaltFreezesPC(t *testing.T) {
	fw, d, _ := evoRig(t)
	fw.NoteHostAccess(2)
	d.Halt(1)
	if d.Status()&(1<<1) == 0 {
		t.Fatal("core 1 not halted")
	}
	pc1 := d.PC(1)
	pc2 := d.PC(1)
	if pc1 != pc2 {
		t.Errorf("halted PC moved: %#x -> %#x", pc1, pc2)
	}
	d.Resume(1)
	if d.Status()&(1<<1) != 0 {
		t.Error("core 1 still halted after resume")
	}
}

func TestFlashPowerGating(t *testing.T) {
	fw, d, _ := evoRig(t)
	if d.FlashControllerPowered() {
		t.Error("flash powered while idle")
	}
	fw.NoteHostAccess(0)
	if !d.FlashControllerPowered() {
		t.Error("flash not powered during activity")
	}
	// Status read consumed the window; idle again.
	if d.FlashControllerPowered() {
		t.Error("flash still powered after idle window")
	}
}

func TestSRAMReadWriteViaJTAG(t *testing.T) {
	_, d, _ := evoRig(t)
	d.WriteWord(SRAMBase+0x40, 0xFEEDC0DE)
	if got := d.ReadWord(SRAMBase + 0x40); got != 0xFEEDC0DE {
		t.Errorf("SRAM readback = %#x", got)
	}
	// DRAM arrays are read-only from the port.
	d.WriteWord(ArraysBase, 0x1234)
	if got := d.ReadWord(ArraysBase); got == 0x1234 {
		t.Error("array region writable via JTAG")
	}
}

func TestMMIORegisters(t *testing.T) {
	_, d, _ := evoRig(t)
	if got := d.ReadWord(MMIOBase + RegCoreCount); got != Cores {
		t.Errorf("core count = %d", got)
	}
	if got := d.ReadWord(MMIOBase + RegChannelCount); got != Channels {
		t.Errorf("channel count = %d", got)
	}
	if got := d.ReadWord(MMIOBase + RegChunkCount); int64(got) != ChunkCount {
		t.Errorf("chunk count = %d, want %d", got, ChunkCount)
	}
}

func TestUnmappedAddressReadsBusError(t *testing.T) {
	_, d, _ := evoRig(t)
	if got := d.ReadWord(0x5000_0000); got != 0xDEAD_DEAD {
		t.Errorf("unmapped read = %#x", got)
	}
}

// Property: synthetic translation entries are deterministic and either
// carry the valid flag with a 26-bit PPN or are the invalid marker.
func TestSyntheticEntriesWellFormedProperty(t *testing.T) {
	fw := New(nil)
	f := func(raw uint32) bool {
		lsn := int64(raw) % int64(LogicalAddrs)
		a, b := fw.entryFor(lsn), fw.entryFor(lsn)
		if a != b {
			return false
		}
		if a == invalidEntry {
			return true
		}
		return a&validFlag != 0 && a&(validFlag-1) < 1<<EntryBits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStandaloneFirmwareWithoutDevice(t *testing.T) {
	fw := New(nil)
	probe := jtag.NewProbe(jtag.NewPins(jtag.NewTAP(fw)))
	probe.Reset()
	d := jtag.NewDebugger(probe, fw.IRWidth())
	if err := fw.HostWrite(100, 4, nil); err != nil {
		t.Fatal(err)
	}
	w := d.ReadWord(ArraysBase + 4*((100>>3)*4)/4) // keep simple: read some resident word
	_ = w
	if fw.loadedCount != 1 {
		t.Errorf("chunks loaded = %d", fw.loadedCount)
	}
}

func TestExtractStrings(t *testing.T) {
	img := BuildImage("EXT0BB6Q", nil)
	strs := ExtractStrings(img, 4)
	found := false
	for _, s := range strs {
		if strings.Contains(s, "SSDFW840") {
			found = true
		}
	}
	if !found {
		t.Errorf("magic string not extracted from %d strings", len(strs))
	}
	if len(ExtractStrings([]byte{0, 1, 2}, 4)) != 0 {
		t.Error("strings found in binary garbage")
	}
	// Trailing run without terminator.
	if got := ExtractStrings([]byte("xyzw"), 4); len(got) != 1 || got[0] != "xyzw" {
		t.Errorf("trailing run = %v", got)
	}
}

func TestSingleStepAdvancesHaltedPC(t *testing.T) {
	fw, d, _ := evoRig(t)
	fw.NoteHostAccess(2)
	d.Halt(1)
	pc0 := d.PC(1)
	d.Step(1)
	if got := d.PC(1); got != pc0+4 {
		t.Errorf("PC after step = %#x, want %#x", got, pc0+4)
	}
	// Step on a running core is a no-op.
	d.Resume(1)
	d.Step(1)
	if d.Status()&(1<<1) != 0 {
		t.Error("step halted a running core")
	}
}

func TestPSLCIndexThroughJTAG(t *testing.T) {
	fw, d, dev := evoRig(t)
	// Generate pSLC-resident data.
	if err := fw.HostWrite(100, 64, nil); err != nil {
		t.Fatal(err)
	}
	done := false
	dev.FlushAsync(func() { done = true })
	dev.Engine().RunWhile(func() bool { return !done })
	if len(dev.FTL().PSLCSnapshot(nil)) == 0 {
		t.Fatal("no pSLC-resident data to index")
	}
	// Scan the hashed index: used buckets must appear, tagged with the
	// used bit, and each tag word's lsn must be pSLC-resident.
	found := 0
	snapshot := dev.FTL().PSLCSnapshot(nil)
	for b := uint32(0); b < PSLCIndexSize/8; b += 1 {
		w := d.ReadWord(PSLCIndexBase + b*8)
		if w&0x8000_0000 == 0 {
			continue
		}
		found++
		lsn := int64(w &^ 0x8000_0000)
		if _, ok := snapshot[lsn]; !ok {
			t.Errorf("bucket %d tags lsn %d, not pSLC-resident", b, lsn)
		}
		val := d.ReadWord(PSLCIndexBase + b*8 + 4)
		if val&validFlag == 0 {
			t.Errorf("bucket %d value %#x missing valid flag", b, val)
		}
		if found > 8 {
			break
		}
	}
	if found == 0 {
		t.Error("hashed index empty despite pSLC residency")
	}
}

func TestChunkBitmapThroughJTAG(t *testing.T) {
	fw, d, _ := evoRig(t)
	if w := d.ReadWord(ChunkBitmapBase); w != 0 {
		t.Errorf("bitmap word 0 = %#x before any access", w)
	}
	fw.NoteHostAccess(0) // loads chunk 0
	if w := d.ReadWord(ChunkBitmapBase); w&1 != 1 {
		t.Errorf("bitmap word 0 = %#x, chunk 0 bit not set", w)
	}
	if got := d.ReadWord(MMIOBase + RegFlashPower); got != 1 {
		t.Errorf("flash power reg = %d during activity", got)
	}
	if got := d.ReadWord(MMIOBase + 0x40); got != 0 {
		t.Errorf("undefined MMIO reg = %#x", got)
	}
}

func TestHostReadHelper(t *testing.T) {
	fw, _, dev := evoRig(t)
	if err := fw.HostWrite(8, 4, nil); err != nil {
		t.Fatal(err)
	}
	done := false
	dev.FlushAsync(func() { done = true })
	dev.Engine().RunWhile(func() bool { return !done })
	readDone := false
	if err := fw.HostRead(8, 4, func() { readDone = true }); err != nil {
		t.Fatal(err)
	}
	dev.Engine().RunWhile(func() bool { return !readDone })
	if fw.Device() != dev {
		t.Error("Device accessor broken")
	}
}
