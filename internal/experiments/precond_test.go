package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ssdtp/internal/fsim"
	"ssdtp/internal/ftl"
	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

// fig3CellFingerprint builds one fig3-family cell with the snapshot cache as
// given and runs a measurement workload against it, returning everything the
// experiment could observe: request counts, the complete latency sample
// stream, the S.M.A.R.T. table, and the full trace + metrics dumps.
func fig3CellFingerprint(cache bool, mutate func(*ssd.Config)) []string {
	SetSnapshotCache(cache)
	defer SetSnapshotCache(true)
	col := obs.NewCollector()
	tr := col.Cell("cell")
	dev := fig3Device(mutate, 42, tr)
	res := workload.Run(dev, workload.Spec{
		Name: "measure", Pattern: workload.Uniform, RequestBytes: 16384,
		QueueDepth: 4, Seed: 42,
	}, workload.Options{Duration: 150 * sim.Millisecond})
	dev.PublishMetrics(tr)
	var trace, metrics bytes.Buffer
	if err := col.WriteJSONL(&trace); err != nil {
		panic(err)
	}
	if err := col.WriteMetrics(&metrics); err != nil {
		panic(err)
	}
	return []string{
		fmt.Sprintf("reqs=%d written=%d read=%d dur=%d", res.Requests, res.BytesWritten, res.BytesRead, res.Duration),
		fmt.Sprintf("lat=%v", res.Latency.Snapshot()),
		dev.SMART().String(),
		fmt.Sprintf("counters=%+v", dev.FTL().Counters()),
		trace.String(),
		metrics.String(),
	}
}

// TestPrefilledCloneMatchesFresh is the tentpole correctness property: a
// device cloned from a cached prefill snapshot must be observationally
// byte-identical to one prefilled from scratch — identical latencies, SMART
// counters, FTL counters, trace spans and metrics (including the trailing-GC
// events the prefill leaves in flight). Checked for the baseline and for a
// variant whose prefill schedules different background work.
func TestPrefilledCloneMatchesFresh(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*ssd.Config)
	}{
		{"baseline", func(*ssd.Config) {}},
		{"rand-greedy-gc", func(c *ssd.Config) {
			c.FTL.GC = ftl.GCRandGreedy
			c.FTL.GCSample = 2
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			fresh := fig3CellFingerprint(false, v.mut)
			clone := fig3CellFingerprint(true, v.mut)
			labels := []string{"result", "latencies", "smart", "counters", "trace", "metrics"}
			for i := range fresh {
				if fresh[i] != clone[i] {
					t.Errorf("%s: clone diverged from fresh build\nfresh: %.400s\nclone: %.400s",
						labels[i], fresh[i], clone[i])
				}
			}
		})
	}
}

// TestAgedFSCloneMatchesFresh checks the same property for the aged
// file-system cache: a (device, fs) pair cloned from an aged image must
// reproduce the fileserver score and device state of a from-scratch build.
func TestAgedFSCloneMatchesFresh(t *testing.T) {
	for _, kind := range []string{"extfs", "logfs"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			run := func(cache bool) []string {
				SetSnapshotCache(cache)
				defer SetSnapshotCache(true)
				fs, dev := agedFS("S64", kind, fsim.AgeA, 42)
				res := fsim.Fileserver(fs, dev.Engine(), 200, 142)
				return []string{
					fmt.Sprintf("ops=%v", res.OpsPerSecond()),
					dev.SMART().String(),
					fmt.Sprintf("counters=%+v", dev.FTL().Counters()),
					fmt.Sprintf("files=%v used=%d", fs.Files(), fs.UsedBytes()),
				}
			}
			fresh := run(false)
			clone := run(true)
			for i := range fresh {
				if fresh[i] != clone[i] {
					t.Errorf("clone diverged from fresh build:\nfresh: %.400s\nclone: %.400s", fresh[i], clone[i])
				}
			}
		})
	}
}

// TestSnapshotCacheTableEquivalence asserts the end-to-end acceptance
// property at the experiment level: whole result tables are byte-identical
// with the cache on and off.
func TestSnapshotCacheTableEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-experiment comparison")
	}
	run := func(cache bool) (string, string) {
		SetSnapshotCache(cache)
		defer SetSnapshotCache(true)
		return Fig3TailLatency(Quick, 42).Table(), TabS7Personalities(Quick, 42).Table()
	}
	fig3Off, tabS7Off := run(false)
	fig3On, tabS7On := run(true)
	if fig3On != fig3Off {
		t.Errorf("fig3 table differs with snapshot cache on:\n--- off ---\n%s--- on ---\n%s", fig3Off, fig3On)
	}
	if tabS7On != tabS7Off {
		t.Errorf("tabS7 table differs with snapshot cache on:\n--- off ---\n%s--- on ---\n%s", tabS7Off, tabS7On)
	}
}

// imageChunks restores a cached image onto a fresh device of cfg and returns
// the identity and size of every image chunk the clone holds.
func imageChunks(cfg ssd.Config, st *ssd.DeviceState) map[any]int64 {
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	dev.Restore(st)
	chunks := map[any]int64{}
	dev.VisitSharedChunks(func(id any, b int64) { chunks[id] = b })
	return chunks
}

// mqsimBaseImageBound caps the unique chunk bytes of the five 85 %-full
// mqsim-base images fig3, transparency and tabS3 cache at seed 42 (four fig3
// FTL designs, which transparency reuses, and tabS3's GCSuspend drive). They
// hold 3,400,704 B of chunks in all and 2,510,848 B once equal chunks of
// one group are shared; the bound allows 2 % over the latter.
const mqsimBaseImageBound = 2_561_000

// TestPrecondImagesShareChunks checks how the preconditioning cache shares
// equal chunks within a group of images (DESIGN.md §8). The GCSuspend image
// holds exactly the bytes of fig3's baseline — a prefill issues no reads,
// so nothing is ever suspended — and must alias every one of its chunks.
// The group as a whole must stay under mqsimBaseImageBound. Fleet images of
// different (model, fill) pairs must share nothing, or cmd/reproduce's
// fleet memory lines would change.
func TestPrecondImagesShareChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments")
	}
	SetSnapshotCache(true) // drops every cached image
	defer SetSnapshotCache(true)
	const seed = 42
	Fig3TailLatency(Quick, seed)
	Transparency(Quick, seed)
	TabS3OpenChannel(Quick, seed)

	image := func(cfg ssd.Config, fill int64) *ssd.DeviceState {
		t.Helper()
		precondCache.Lock()
		defer precondCache.Unlock()
		e := precondCache.m[fmt.Sprintf("prefill|%d|%s", fill, configKey(cfg))]
		if e == nil {
			t.Fatalf("no cached image for %s at %d%%", cfg.Name, fill)
		}
		return e.dev
	}
	base := ssd.MQSimBase()
	base.FTL.Seed = seed
	suspend := base
	suspend.FTL.GCSuspend = true
	baseChunks := imageChunks(base, image(base, 85))
	suspendChunks := imageChunks(suspend, image(suspend, 85))
	if n := shared(suspendChunks, baseChunks); len(suspendChunks) == 0 || n != len(suspendChunks) {
		t.Errorf("the GCSuspend image shares %d of its %d chunks with the baseline image, want all", n, len(suspendChunks))
	}

	var group []*ssd.DeviceState
	precondCache.Lock()
	if g := precondCache.groups["prefill|85|mqsim-base"]; g != nil {
		group = append(group, g.images...)
	}
	precondCache.Unlock()
	cfgs := []ssd.Config{suspend}
	for _, c := range Fig3Configs() {
		cfg := base
		c.Mutate(&cfg)
		cfgs = append(cfgs, cfg)
	}
	if len(group) != len(cfgs) {
		t.Fatalf("the 85%% mqsim-base group holds %d images, want %d (fig3's four designs and tabS3's GCSuspend)", len(group), len(cfgs))
	}
	unique := map[any]int64{}
	var total int64
	for _, cfg := range cfgs {
		st := image(cfg, 85)
		if !slices.Contains(group, st) {
			t.Fatalf("the image of %+v is not in its group", cfg.FTL)
		}
		for id, b := range imageChunks(cfg, st) {
			unique[id] = b
			total += b
		}
	}
	var bytes int64
	for _, b := range unique {
		bytes += b
	}
	t.Logf("85%% mqsim-base group: %d images, %d B of chunks, %d B unique", len(group), total, bytes)
	if bytes > mqsimBaseImageBound {
		t.Errorf("the 85%% mqsim-base images hold %d unique chunk bytes, want at most %d", bytes, mqsimBaseImageBound)
	}

	// The fleet's four (model, fill) images, built as FleetTail builds them.
	var fleetImgs []map[any]int64
	for _, model := range []int{0, 1} {
		for _, fill := range fleetFillLevels {
			cfg := fleetDriveConfig(model, seed)
			prefilledDeviceFrac(cfg, nil, fill)
			fleetImgs = append(fleetImgs, imageChunks(cfg, image(cfg, fill)))
		}
	}
	for i := range fleetImgs {
		for j := i + 1; j < len(fleetImgs); j++ {
			if n := shared(fleetImgs[i], fleetImgs[j]); n != 0 {
				t.Errorf("fleet images %d and %d of different (model, fill) pairs share %d chunks", i, j, n)
			}
		}
	}
}

// shared counts the chunks of a that b holds too.
func shared(a, b map[any]int64) int {
	n := 0
	for id := range a {
		if _, ok := b[id]; ok {
			n++
		}
	}
	return n
}
