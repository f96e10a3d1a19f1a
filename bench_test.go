package ssdtp_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"ssdtp/internal/experiments"
	"ssdtp/internal/ftl"
	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
	"ssdtp/internal/smart"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

// TestMain installs a parallel cell pool so the figure benchmarks fan
// their grids out across all CPUs, exactly as cmd/reproduce does by
// default. runner.Map assembles cells in declaration order, so every
// reported metric is identical to a serial run.
func TestMain(m *testing.M) {
	experiments.SetPool(&runner.Pool{Workers: runtime.GOMAXPROCS(0)})
	os.Exit(m.Run())
}

// cold drops the preconditioned images that earlier runs in this process
// cached, so that every iteration of a figure benchmark times a cold
// regeneration, as one cmd/reproduce run does, and no benchmark's time
// depends on which ran before it. Without it BenchmarkFig3Attribution read
// 85 ms after BenchmarkFig3TailLatency and 286 ms alone.
func cold() { experiments.SetSnapshotCache(true) }

// Figure benchmarks: each iteration regenerates a figure at Quick scale and
// reports its headline number as a custom metric. Fig2, Fig3 and Fig6 are
// CI's one-iteration smoke set, the Fig3 variants price tracing, FleetTail
// times the fleet pump at Quick scale, and TabS5, TabS7 and
// RunnerDesignSweep (tabS4) time the three tables perfbench's paper-quick
// workload leaves out. perfbench times the rest (`make perf-diff`), and
// `make outputs-diff` pins every table byte-for-byte.

func BenchmarkFig2Compression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		res := experiments.Fig2Compression(experiments.Quick, int64(i)+1)
		b.ReportMetric(res.WorstOverOptimal("high"), "worst/optimal@high")
	}
}

func BenchmarkFig3TailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		res := experiments.Fig3TailLatency(experiments.Quick, int64(i)+1)
		b.ReportMetric(res.P99Spread(), "p99-spread")
	}
}

// BenchmarkFig3Attribution regenerates fig3 with the full observability
// stack live — collector, span capture, latency-attribution profiler, and
// timeline sampling — where BenchmarkFig3TailLatency runs it tracing-off.
// The ns/op ratio between the two is the tracing-on overhead; the budget is
// ≤10%.
func BenchmarkFig3Attribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		col := obs.NewCollector()
		col.SetTimeline(10 * sim.Millisecond)
		experiments.SetObserver(col)
		res := experiments.Fig3TailLatency(experiments.Quick, int64(i)+1)
		experiments.SetObserver(nil)
		b.ReportMetric(res.P99Spread(), "p99-spread")
	}
}

// BenchmarkFig3Telemetry regenerates fig3 with the transparency log-page
// stream live on top of the full observability stack: every cell samples its
// device page on 1 ms simulated-clock boundaries. The ns/op delta against
// BenchmarkFig3Attribution is the telemetry cost alone; against
// BenchmarkFig3TailLatency it is the whole disclosed-observability price.
func BenchmarkFig3Telemetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		col := obs.NewCollector()
		col.SetTimeline(10 * sim.Millisecond)
		col.SetTelemetry(sim.Millisecond)
		experiments.SetObserver(col)
		res := experiments.Fig3TailLatency(experiments.Quick, int64(i)+1)
		experiments.SetObserver(nil)
		rows := 0
		var sb strings.Builder
		if err := col.WriteTelemetryJSONL(&sb); err == nil {
			rows = strings.Count(sb.String(), "\n")
		}
		b.ReportMetric(res.P99Spread(), "p99-spread")
		b.ReportMetric(float64(rows), "log-pages")
	}
}

func BenchmarkFig6JTAG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		res := experiments.Fig6JTAG(experiments.Quick, int64(i)+1)
		ok := 0.0
		if res.AllOK() {
			ok = 1
		}
		b.ReportMetric(ok, "ground-truth-match")
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

// steadyDevice builds a prefilled device (85% full plus an overwrite pass,
// so garbage collection has both pressure and reclaimable space) with one
// FTL mutation applied.
func steadyDevice(mut func(*ssd.Config), seed int64) *ssd.Device {
	cfg := ssd.MQSimBase()
	cfg.FTL.Seed = seed
	mut(&cfg)
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	fill := dev.Size() * 85 / 100 / 65536 * 65536
	workload.Run(dev, workload.Spec{
		Name: "prefill", Pattern: workload.Sequential, RequestBytes: 65536, Length: fill,
	}, workload.Options{MaxRequests: fill / 65536})
	workload.Run(dev, workload.Spec{
		Name: "prefill2", Pattern: workload.Sequential, RequestBytes: 65536, Length: fill / 2,
	}, workload.Options{MaxRequests: fill / 2 / 65536})
	return dev
}

// BenchmarkAblationGCSampling sweeps the d-choices width of
// randomized-greedy victim selection: wider sampling approaches greedy's
// write amplification.
func BenchmarkAblationGCSampling(b *testing.B) {
	for _, d := range []int{1, 2, 4, 16} {
		b.Run(string(rune('0'+d/10))+string(rune('0'+d%10)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev := steadyDevice(func(c *ssd.Config) {
					c.FTL.GC = ftl.GCRandGreedy
					c.FTL.GCSample = d
				}, int64(i)+1)
				workload.Run(dev, workload.Spec{
					Name: "churn", Pattern: workload.Uniform, RequestBytes: 16384,
					QueueDepth: 8, Seed: int64(i),
				}, workload.Options{Duration: 400 * sim.Millisecond})
				c := dev.FTL().Counters()
				if c.DataPagesProgrammed > 0 {
					b.ReportMetric(float64(c.GCPagesProgrammed)/float64(c.DataPagesProgrammed), "gc-pages-per-data-page")
				}
			}
		})
	}
}

// BenchmarkAblationCacheSize sweeps the write cache: bigger caches absorb
// more overwrites and shield tails.
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, mb := range []int{1, 4, 16} {
		b.Run(string(rune('0'+mb/10))+string(rune('0'+mb%10))+"MB", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev := steadyDevice(func(c *ssd.Config) { c.FTL.CacheBytes = mb << 20 }, int64(i)+1)
				res := workload.Run(dev, workload.Spec{
					Name: "hot", Pattern: workload.Hotspot, RequestBytes: 4096,
					Length: 8 << 20, QueueDepth: 4, Seed: int64(i),
				}, workload.Options{Duration: 200 * sim.Millisecond})
				hitRate := float64(dev.FTL().Counters().CacheHits) / float64(res.Requests)
				b.ReportMetric(float64(res.Latency.Percentile(99))/1000, "p99-µs")
				b.ReportMetric(hitRate, "cache-hit-rate")
			}
		})
	}
}

// BenchmarkAblationRAINStripe sweeps parity width: the Figure 4a asymptote
// moves with the data fraction of the stripe.
func BenchmarkAblationRAINStripe(b *testing.B) {
	for _, dp := range []int{7, 15, 31} {
		b.Run(string(rune('0'+dp/10))+string(rune('0'+dp%10)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ssd.MX500()
				cfg.FTL.RAIN.DataPages = dp
				cfg.FTL.Seed = int64(i)
				dev := ssd.NewDevice(sim.NewEngine(), cfg)
				spec := workload.Spec{Name: "seq", Pattern: workload.Sequential, RequestBytes: 1 << 20, SyncEvery: 1}
				workload.Run(dev, spec, workload.Options{MaxRequests: 32})
				tab := dev.SMART()
				ticks := tab.Value(smart.AttrHostProgramPageCount) + tab.Value(smart.AttrFTLProgramPageCount)
				if ticks > 0 {
					b.ReportMetric(float64(dev.HostBytesWritten())/float64(ticks)/1024, "KB-per-page")
				}
			}
		})
	}
}

// BenchmarkAblationAllocation sweeps all four supported allocation orders:
// channel-first striping wins for small sequential writes.
func BenchmarkAblationAllocation(b *testing.B) {
	orders := []ftl.AllocOrder{ftl.AllocCWDP, ftl.AllocPDWC, ftl.AllocWDPC, ftl.AllocDPCW}
	for _, ord := range orders {
		b.Run(ord.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ssd.MQSimBase()
				cfg.FTL.Alloc = ord
				cfg.FTL.Cache = ftl.CacheMapping // small staging buffer: program parallelism bounds throughput
				cfg.FTL.Seed = int64(i)
				dev := ssd.NewDevice(sim.NewEngine(), cfg)
				res := workload.Run(dev, workload.Spec{
					Name: "seq", Pattern: workload.Sequential, RequestBytes: 16384, QueueDepth: 4,
				}, workload.Options{MaxRequests: 512})
				b.ReportMetric(res.ThroughputMBps(), "MB/s")
			}
		})
	}
}

// BenchmarkAblationMapCache sweeps the mapping-cache size: a larger
// metadata cache journals the translation map less often.
func BenchmarkAblationMapCache(b *testing.B) {
	for _, kb := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev := steadyDevice(func(c *ssd.Config) {
					c.FTL.Cache = ftl.CacheMapping
					c.FTL.CacheBytes = kb << 10
				}, int64(i)+1)
				workload.Run(dev, workload.Spec{
					Name: "rand", Pattern: workload.Uniform, RequestBytes: 4096,
					QueueDepth: 8, Seed: int64(i),
				}, workload.Options{Duration: 400 * sim.Millisecond})
				b.ReportMetric(float64(dev.FTL().Counters().MapPagesProgrammed), "map-pages")
			}
		})
	}
}

// BenchmarkFleetTail regenerates the fleet experiment (32 drives at Quick
// scale, both placement policies as parallel cells, four tenants each) and
// reports the headline isolation contrast: how many tenants see zero GC
// blast radius under each policy.
func BenchmarkFleetTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		res := experiments.FleetTail(experiments.Quick, int64(i)+1)
		si, _ := res.Isolated("stripe")
		hi, _ := res.Isolated("hash")
		b.ReportMetric(float64(si), "stripe-isolated")
		b.ReportMetric(float64(hi), "hash-isolated")
	}
}

// BenchmarkRunnerDesignSweep pins the sweep-layer parallelism win: the
// tabS4 24-point factorial at 1 worker vs all CPUs. The wall-clock ratio
// between the two sub-benchmarks is the experiment-runner speedup on this
// machine (ns/op shrinks with cores; the tables stay byte-identical).
func BenchmarkRunnerDesignSweep(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			experiments.SetPool(&runner.Pool{Workers: workers})
			defer experiments.SetPool(&runner.Pool{Workers: runtime.GOMAXPROCS(0)})
			for i := 0; i < b.N; i++ {
				cold()
				experiments.TabS4DesignSweep(experiments.Quick, int64(i)+1)
			}
		})
	}
}

func BenchmarkTabS5Endurance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		res := experiments.TabS5Endurance(experiments.Quick, int64(i)+1)
		worst := int64(0)
		for _, row := range res.Rows {
			if row.BadBlocks > worst {
				worst = row.BadBlocks
			}
		}
		b.ReportMetric(float64(worst), "worst-bad-blocks")
	}
}

func BenchmarkTabS7Personalities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cold()
		res := experiments.TabS7Personalities(experiments.Quick, int64(i)+1)
		lo, hi := res.RatioRange()
		b.ReportMetric(hi/lo, "workload-ratio-spread")
	}
}

// drainedSnapshot flushes dev to a quiescent state and seals its image.
func drainedSnapshot(dev *ssd.Device) *ssd.DeviceState {
	done := false
	if err := dev.FlushAsync(func() { done = true }); err != nil {
		panic(err)
	}
	dev.Engine().RunWhile(func() bool { return !done })
	return dev.Snapshot()
}

// BenchmarkDriveClone measures materializing one more preconditioned drive
// from a sealed image: the clone aliases the image's chunks, so it costs
// O(chunk pointers), not a copy of every array. CI runs this benchmark once,
// as a smoke test.
func BenchmarkDriveClone(b *testing.B) {
	cfg := ssd.MQSimBase()
	cfg.FTL.Seed = 1
	img := drainedSnapshot(steadyDevice(func(c *ssd.Config) {}, 1))
	b.Run("cow", func(b *testing.B) {
		// Device construction is cheap now that fresh COW arrays
		// materialize nothing; time the clone itself — what each extra
		// fleet drive costs.
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dev := ssd.NewDevice(sim.NewEngine(), cfg)
			b.StartTimer()
			dev.Restore(img)
		}
	})
}
