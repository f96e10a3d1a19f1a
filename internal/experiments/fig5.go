package experiments

import (
	"fmt"
	"strings"

	"ssdtp/internal/sigtrace"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

// Fig5Result is the hardware-probe feasibility demonstration (§3.1,
// Figure 5): a captured signal trace from one flash package while the host
// formats the drive with an NTFS-like layout, rendered as a waveform, plus
// the decoded structure of the first program burst.
type Fig5Result struct {
	Events     int
	Bursts     int
	FirstBurst sigtrace.Burst
	Waveform   string
	DecodedOps []sigtrace.Op
	// BurstUnderMs reports the paper's observation: command+address
	// activity then a long data-only transfer, all in under a millisecond
	// before the array goes busy.
	BurstUnderMs bool
}

// Table renders the figure.
func (r Fig5Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "captured %d bus events in %d bursts while formatting\n", r.Events, r.Bursts)
	fmt.Fprintf(&b, "first activity burst: %s long (cmd+addr, then data; <1ms: %v)\n",
		fmtDur(r.FirstBurst.Duration()), r.BurstUnderMs)
	b.WriteString(r.Waveform)
	if len(r.DecodedOps) > 0 {
		fmt.Fprintf(&b, "decoded: %v\n", r.DecodedOps[0])
	}
	return b.String()
}

func fmtDur(t sim.Time) string {
	if t >= sim.Millisecond {
		return fmt.Sprintf("%.2fms", float64(t)/float64(sim.Millisecond))
	}
	return fmt.Sprintf("%dµs", t/sim.Microsecond)
}

// ntfsFormat issues the write pattern an NTFS format produces: boot sector,
// backup boot sector at the end of the volume, $MFT and $MFTMirr zone
// initialization, and volume metadata files.
func ntfsFormat(dev *ssd.Device) {
	write := func(off, n int64) {
		if off+n <= dev.Size() {
			must(dev.Write(off, nil, n))
		}
	}
	align := func(x int64) int64 { return x / 4096 * 4096 }
	size := dev.Size()
	write(0, 8192)                         // boot sector + bootstrap
	write(align(size-8192), 8192)          // backup boot sector
	write(align(size/8), 256*1024)         // $MFT zone
	write(align(size/2), 64*1024)          // $MFTMirr
	write(align(size/8)+256*1024, 64*1024) // $LogFile
	write(align(size/8)+320*1024, 32*1024) // $Bitmap
	must(dev.Flush())
}

// Fig5SignalTrace reproduces Figure 5: probes on flash package 0 of the OCZ
// Vertex II model while the host formats the drive; the waveform zooms on
// the first program burst.
func Fig5SignalTrace(scale Scale, seed int64) Fig5Result {
	cfg := ssd.Vertex2()
	cfg.FTL.Seed = seed
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	an := sigtrace.Attach(dev.Array().Bus(0))
	an.Arm()
	ntfsFormat(dev)
	an.Stop()
	evs := an.Events()
	bursts := sigtrace.Bursts(evs, 100*sim.Microsecond)
	res := Fig5Result{Events: len(evs), Bursts: len(bursts)}
	if len(bursts) == 0 {
		return res
	}
	res.FirstBurst = bursts[0]
	res.BurstUnderMs = res.FirstBurst.Duration() < sim.Millisecond
	// Zoom: from just before the burst through the array-busy interval.
	from := res.FirstBurst.Start - 10*sim.Microsecond
	if from < 0 {
		from = 0
	}
	to := res.FirstBurst.End + 50*sim.Microsecond
	res.Waveform = sigtrace.RenderWaveform(evs, from, to, 96)
	res.DecodedOps = sigtrace.Decode(res.FirstBurst.Events)
	if len(res.DecodedOps) == 0 {
		// The burst may end before Ready; decode the whole capture and
		// keep ops overlapping the burst.
		for _, op := range sigtrace.Decode(evs) {
			if op.Start <= res.FirstBurst.End {
				res.DecodedOps = append(res.DecodedOps, op)
			}
		}
	}
	return res
}
