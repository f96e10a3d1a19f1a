package workload

import (
	"fmt"

	"ssdtp/internal/blockdev"
	"ssdtp/internal/stats"
)

// Replay drives a recorded block trace (see ParseTrace) against a target,
// preserving order, and returns per-operation latency statistics. Record
// once on one device model, replay on another: the cross-device comparisons
// of the paper's Figure 1 argument, without re-running the application.
//
// Traces recorded on a larger device are folded into the target's address
// space (see clampOff). Operations that cannot be played at all — a length
// larger than the whole target, zero/negative lengths, or offsets/lengths the
// target rejects as unaligned — are skipped and counted in Result.SkippedOps
// rather than aborting the replay: a foreign trace with a handful of
// oversized ops still yields the latency comparison the caller wanted.
// Failures the device reports for ops that passed validation, and a replay
// whose simulation stalls, return an error.
func Replay(dev Target, ops []blockdev.Op) (Result, error) {
	eng := dev.Engine()
	res := Result{Name: "replay", Latency: stats.NewLatencyRecorder()}
	start := eng.Now()
	for i, op := range ops {
		if !replayable(dev, op) {
			res.SkippedOps++
			continue
		}
		opStart := eng.Now()
		done := false
		complete := func() { done = true }
		var err error
		switch op.Kind {
		case blockdev.OpRead:
			err = dev.ReadAsync(clampOff(dev, op.Off, op.Len), nil, op.Len, complete)
			res.BytesRead += op.Len
		case blockdev.OpWrite:
			err = dev.WriteAsync(clampOff(dev, op.Off, op.Len), nil, op.Len, complete)
			res.BytesWritten += op.Len
		case blockdev.OpTrim:
			err = dev.TrimAsync(clampOff(dev, op.Off, op.Len), op.Len, complete)
		case blockdev.OpFlush:
			err = dev.FlushAsync(complete)
		default:
			res.SkippedOps++
			continue
		}
		if err != nil {
			return res, fmt.Errorf("workload: replay op %d %+v: %w", i, op, err)
		}
		if eng.RunWhile(func() bool { return !done }) {
			return res, fmt.Errorf("workload: replay op %d %+v: simulation stalled before completion", i, op)
		}
		res.Requests++
		res.Latency.Record(eng.Now() - opStart)
	}
	res.Duration = eng.Now() - start
	return res, nil
}

// replayable reports whether op can be issued against dev at all: flushes
// always can; reads/writes/trims need a positive, sector-aligned length no
// larger than the device and a non-negative, aligned offset (the offset is
// folded into range by clampOff, but alignment and length cannot be
// repaired without changing what the trace meant).
func replayable(dev Target, op blockdev.Op) bool {
	if op.Kind == blockdev.OpFlush {
		return true
	}
	sector := int64(dev.SectorSize())
	return op.Len > 0 && op.Len <= dev.Size() && op.Off >= 0 &&
		op.Len%sector == 0 && op.Off%sector == 0
}

// clampOff folds trace offsets into the target device's address space so a
// trace recorded on a larger device replays on a smaller one (the fold
// preserves locality within the wrapped region). The caller has already
// checked n <= Size (replayable), so the folded range always fits.
func clampOff(dev Target, off, n int64) int64 {
	size := dev.Size()
	if off+n <= size {
		return off
	}
	sector := int64(dev.SectorSize())
	span := (size - n) / sector
	if span <= 0 {
		return 0
	}
	return (off / sector % span) * sector
}
