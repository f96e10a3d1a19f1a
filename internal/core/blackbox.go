// Package core is the paper's contribution: a toolkit for increasing SSD
// performance transparency. It bundles the three methodologies the paper
// develops or critiques:
//
//   - Black-box characterization from host-visible signals (S.M.A.R.T.
//     counters, latency), including the §2.2 analyses that demonstrate
//     where black-box extrapolation breaks down.
//   - Hardware-probe reverse engineering over ONFI bus captures (§3.1).
//   - JTAG-based firmware exploration (§3.2).
//
// Everything here observes devices only through interfaces a real
// experimenter has: the block interface and S.M.A.R.T. for black-box work,
// bus probes for §3.1, and the debug port plus a public firmware update
// file for §3.2. Ground-truth accessors (ssd.Device.FTL, firmware
// constants) are used only by tests to validate findings.
package core

import (
	"ssdtp/internal/sim"
	"ssdtp/internal/smart"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
	"ssdtp/internal/workload"
)

// PageUnitPoint is one measurement of the Figure 4a experiment: host bytes
// written per unit increment of the "NAND Pages" S.M.A.R.T. counters, at one
// request size.
type PageUnitPoint struct {
	RequestBytes int
	HostBytes    int64
	NANDPages    int64
}

// BytesPerPage returns host bytes per counter tick.
func (p PageUnitPoint) BytesPerPage() float64 {
	if p.NANDPages == 0 {
		return 0
	}
	return float64(p.HostBytes) / float64(p.NANDPages)
}

// nandPages reads the combined host+FTL program page counters.
func nandPages(dev *ssd.Device) int64 {
	t := dev.SMART()
	return t.Value(smart.AttrHostProgramPageCount) + t.Value(smart.AttrFTLProgramPageCount)
}

// MeasurePageUnit runs the §2.2 NAND-page-size inference: for each request
// size, write `perSize` bytes sequentially with a flush per request (the
// sync-write pattern of a simple fio size sweep), and divide host bytes by
// the S.M.A.R.T. counter delta. On the MX500 the series converges toward
// ~30 KB — the RAIN-adjusted counter unit.
func MeasurePageUnit(dev *ssd.Device, sizes []int, perSize int64) []PageUnitPoint {
	out := make([]PageUnitPoint, 0, len(sizes))
	var cursor int64
	for _, size := range sizes {
		n := perSize / int64(size)
		if n < 1 {
			n = 1
		}
		before := nandPages(dev)
		spec := workload.Spec{
			Name:         "seq-sync",
			Pattern:      workload.Sequential,
			RequestBytes: size,
			Offset:       cursor,
			Length:       n * int64(size),
			SyncEvery:    1,
		}
		res := workload.Run(dev, spec, workload.Options{MaxRequests: n})
		cursor += n * int64(size)
		out = append(out, PageUnitPoint{
			RequestBytes: size,
			HostBytes:    res.BytesWritten,
			NANDPages:    nandPages(dev) - before,
		})
	}
	return out
}

// WAFMeasurement is one workload's write-amplification observation, with
// WAF computed the way the paper's experimenters must: assuming a nominal
// page size for the opaque "NAND Pages" unit.
type WAFMeasurement struct {
	Name      string
	HostBytes int64
	NANDPages int64
	IOPS      float64
}

// WAF returns NANDPages x assumedPageBytes / host bytes.
func (m WAFMeasurement) WAF(assumedPageBytes int64) float64 {
	if m.HostBytes == 0 {
		return 0
	}
	return float64(m.NANDPages*assumedPageBytes) / float64(m.HostBytes)
}

// quiesce drains the device write cache so S.M.A.R.T. deltas reflect all
// the run's traffic (the drive idles between fio runs in the paper's
// methodology).
func quiesce(dev *ssd.Device) { must(dev.Flush()) }

// must panics on a blocking device call's error: every request the toolkit
// issues is in range and aligned, so a submission error or a stalled engine
// is a model bug, and a measurement taken past it would be wrong.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// MeasureWAF runs one workload for the given duration and returns its
// S.M.A.R.T.-observed write amplification inputs. The device is quiesced on
// both sides of the run.
func MeasureWAF(dev *ssd.Device, spec workload.Spec, dur sim.Time) WAFMeasurement {
	quiesce(dev)
	before := nandPages(dev)
	res := workload.Run(dev, spec, workload.Options{Duration: dur})
	quiesce(dev)
	return WAFMeasurement{
		Name:      spec.Name,
		HostBytes: res.BytesWritten,
		NANDPages: nandPages(dev) - before,
		IOPS:      res.IOPS(),
	}
}

// MeasureWAFConcurrent runs several workloads together and returns the
// combined measurement plus per-workload host traffic (the S.M.A.R.T.
// counters cannot be attributed per workload — that opacity is the point of
// Figure 4b).
type ConcurrentWAF struct {
	Combined WAFMeasurement
	PerSpec  []workload.Result
}

// MeasureWAFConcurrent runs specs simultaneously for dur.
func MeasureWAFConcurrent(dev *ssd.Device, specs []workload.Spec, dur sim.Time) ConcurrentWAF {
	quiesce(dev)
	before := nandPages(dev)
	results := workload.RunConcurrent(dev, specs, workload.Options{Duration: dur})
	quiesce(dev)
	var host int64
	var iops float64
	for _, r := range results {
		host += r.BytesWritten
		iops += r.IOPS()
	}
	return ConcurrentWAF{
		Combined: WAFMeasurement{
			Name:      "mixed",
			HostBytes: host,
			NANDPages: nandPages(dev) - before,
			IOPS:      iops,
		},
		PerSpec: results,
	}
}

// PredictMixedWAF applies the paper's (deliberately naive) additive model:
// each sub-workload's WAF weighted by its IOPS. Figure 4b shows reality
// beating this prediction by nearly 2x.
func PredictMixedWAF(parts []WAFMeasurement, assumedPageBytes int64) float64 {
	wafs := make([]float64, len(parts))
	iops := make([]float64, len(parts))
	for i, p := range parts {
		wafs[i] = p.WAF(assumedPageBytes)
		iops[i] = p.IOPS
	}
	return stats.WeightedWAF(wafs, iops)
}

// DetectWriteBufferSize estimates the device's volatile write-buffer
// capacity (an SSDCheck-style probe): issue progressively larger bursts of
// 4 KB writes from idle and find the knee where per-request latency jumps
// from DRAM-admission cost to flash-program cost. Returns the estimated
// buffer bytes and the measured knee latencies.
func DetectWriteBufferSize(dev *ssd.Device, maxBytes int64) (int64, []sim.Time) {
	eng := dev.Engine()
	var knees []sim.Time
	var estimate int64
	burst := int64(64 * 1024)
	for burst <= maxBytes {
		// Quiesce, then burst.
		quiesce(dev)

		lat := stats.NewLatencyRecorder()
		pending := 0
		var off int64
		for issued := int64(0); issued < burst; issued += 4096 {
			start := eng.Now()
			pending++
			if err := dev.WriteAsync(off%dev.Size(), nil, 4096, func() {
				lat.Record(eng.Now() - start)
				pending--
			}); err != nil {
				panic(err)
			}
			off += 4096
		}
		eng.RunWhile(func() bool { return pending > 0 })
		p95 := lat.Percentile(95)
		knees = append(knees, p95)
		// A knee: p95 an order of magnitude above the burst's p50.
		if p95 > 10*lat.Percentile(50) && estimate == 0 {
			estimate = burst
		}
		burst *= 2
	}
	return estimate, knees
}

// ParallelismEstimate is the result of the queue-depth read probe.
type ParallelismEstimate struct {
	// Units is the inferred internal parallelism (dies reachable
	// concurrently).
	Units int
	// Latencies maps queue depth to batch completion time.
	Latencies []sim.Time
}

// EstimateParallelism infers the device's internal parallelism from the
// host side only (an SSDCheck-style probe): read batches of increasing
// depth from widely spaced addresses and find where batch time starts
// scaling linearly — the knee is the number of units that can serve reads
// concurrently.
func EstimateParallelism(dev *ssd.Device, maxDepth int) ParallelismEstimate {
	eng := dev.Engine()
	// Prime widely spaced pages so reads are real flash reads.
	page := int64(dev.Array().Geometry().PageSize)
	stride := dev.Size() / int64(maxDepth+1) / page * page
	if stride < page {
		stride = page
	}
	for i := 0; i <= maxDepth; i++ {
		must(dev.Write(int64(i)*stride, nil, page))
	}
	quiesce(dev)

	est := ParallelismEstimate{}
	var base sim.Time
	for depth := 1; depth <= maxDepth; depth++ {
		start := eng.Now()
		pending := depth
		for i := 0; i < depth; i++ {
			if err := dev.ReadAsync(int64(i)*stride, nil, page, func() { pending-- }); err != nil {
				panic(err)
			}
		}
		eng.RunWhile(func() bool { return pending > 0 })
		batch := eng.Now() - start
		est.Latencies = append(est.Latencies, batch)
		if depth == 1 {
			base = batch
			est.Units = 1
			continue
		}
		// While the batch completes in ~one read time, the units keep up.
		if batch < base*3/2 {
			est.Units = depth
		}
	}
	return est
}
