package core

import (
	"fmt"
	"sort"

	"ssdtp/internal/sigtrace"
	"ssdtp/internal/ssd"
)

// StripingFindings reports how the FTL spreads consecutive writes across
// channels — recovered entirely from probe captures. The page-allocation
// scheme is one of the three design axes the paper's §2.1 experiment varies
// and one a simulator must guess; probes settle it.
type StripingFindings struct {
	// ChannelSequence is the channel of each captured program, in issue
	// order (informational: die contention perturbs it).
	ChannelSequence []int
	// Channels is how many distinct channels carried the batch: a batch of
	// one-channel-count pages lights up every channel under channel-first
	// striping and one or two channels under channel-last.
	Channels int
	// TotalChannels is the probe count (the physically visible channels).
	TotalChannels int
	// Guess names the inferred scheme family.
	Guess string
}

func (f StripingFindings) String() string {
	return fmt.Sprintf("%s (%d of %d channels active; sequence %v)",
		f.Guess, f.Channels, f.TotalChannels, f.ChannelSequence)
}

// InferStriping writes a batch of consecutive pages (one per channel, so a
// channel-first allocator must touch every channel) and flushes once while
// probing every channel, then reads the fan-out off the wire. steps <= 0
// defaults to the channel count.
func InferStriping(dev *ssd.Device, steps int) StripingFindings {
	if steps <= 0 {
		steps = dev.Array().Channels()
	}
	eng := dev.Engine()
	rig := attachProbes(dev)
	defer rig.detach()

	pageBytes := int64(dev.Array().Geometry().PageSize)
	rig.capturePhaseKeep(func() {
		pending := steps
		for i := 0; i < steps; i++ {
			if err := dev.WriteAsync(int64(i)*pageBytes, nil, pageBytes, func() { pending-- }); err != nil {
				panic(err)
			}
		}
		eng.RunWhile(func() bool { return pending > 0 })
		quiesce(dev)
	})

	// Collect (issue time, channel) of every program across channels.
	type prog struct {
		start int64
		ch    int
	}
	var progs []prog
	for ch, a := range rig.analyzers {
		for _, op := range sigtrace.Decode(a.Events()) {
			if op.Kind == sigtrace.OpProgram {
				progs = append(progs, prog{int64(op.Start), ch})
			}
		}
	}
	sort.Slice(progs, func(i, j int) bool { return progs[i].start < progs[j].start })
	var seq []int
	for i, p := range progs {
		if i >= steps {
			break
		}
		seq = append(seq, p.ch)
	}

	f := StripingFindings{ChannelSequence: seq, TotalChannels: dev.Array().Channels()}
	distinct := map[int]bool{}
	for _, c := range seq {
		distinct[c] = true
	}
	f.Channels = len(distinct)
	switch {
	case len(seq) < 2 || f.TotalChannels < 2:
		f.Guess = "indeterminate"
	case f.Channels >= f.TotalChannels:
		f.Guess = "channel-first striping (CWDP-like)"
	case f.Channels*2 <= f.TotalChannels:
		f.Guess = "channel-last striping (PDWC-like)"
	default:
		f.Guess = "partially channel-interleaved"
	}
	return f
}
