package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"ssdtp/internal/experiments"
	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

// The paper-quick workload runs every cmd/reproduce experiment at Quick
// scale, its grids fanned out on a runner pool. Set-up is a cold pass (the
// preconditioning cache emptied first); reps are warm passes. Each pass
// hashes every table the experiment prints.

// paperWorkers is paper-quick's runner pool size and GOMAXPROCS. With two
// workers on a two-CPU host, warm passes spread 26 % between the quartiles
// within one process, so the pool runs one worker.
const paperWorkers = 1

// paperExperiment is one cmd/reproduce experiment at Quick scale; run returns
// the tables cmd/reproduce prints for it.
type paperExperiment struct {
	id  string
	run func(seed int64) ([]string, error)
}

const quick = experiments.Quick

// paperExperiments is every cmd/reproduce experiment but tabS4, tabS5 and
// tabS7, in its print order. Those three took 70 % of a pass (2.7 of 3.9 s
// on a 2-vCPU VM); with them a run held five passes, too few to find the
// stretches of a run free of host contention, and the run-to-run spread of
// wall_s was 0.29. Their runner grids and FTL paths are the ones fig1, fig3,
// fig4a and tabS3 also take.
var paperExperiments = []paperExperiment{
	{"fig1", func(s int64) ([]string, error) { return one(experiments.Fig1Aging(quick, s).Table()) }},
	{"fig2", func(s int64) ([]string, error) { return one(experiments.Fig2Compression(quick, s).Table()) }},
	{"fig3", func(s int64) ([]string, error) {
		r := experiments.Fig3TailLatency(quick, s)
		return []string{r.Table(), experiments.TableS1MeanDelta(r).Table()}, nil
	}},
	{"fig4a", func(s int64) ([]string, error) { return one(experiments.Fig4aNandPageSize(quick, s).Table()) }},
	{"fig4b", func(s int64) ([]string, error) { return one(experiments.Fig4bWAF(quick, s).Table()) }},
	{"fig5", func(s int64) ([]string, error) { return one(experiments.Fig5SignalTrace(quick, s).Table()) }},
	{"fleet", func(s int64) ([]string, error) { return one(experiments.FleetTail(quick, s).Table()) }},
	{"transparency", func(s int64) ([]string, error) { return one(experiments.Transparency(quick, s).Table()) }},
	{"tabS2", func(s int64) ([]string, error) { return one(experiments.TabS2ProbeRate(quick, s).Table()) }},
	{"tabS3", func(s int64) ([]string, error) { return one(experiments.TabS3OpenChannel(quick, s).Table()) }},
	{"tabS6", func(s int64) ([]string, error) { return one(experiments.TabS6Proportionality(quick, s).Table()) }},
	{"tabS8", func(s int64) ([]string, error) { return one(experiments.TabS8MountLatency(quick, s).Table()) }},
	{"fig6", func(s int64) ([]string, error) {
		r := experiments.Fig6JTAG(quick, s)
		if !r.AllOK() {
			return nil, errors.New("findings did not match the planted ground truth")
		}
		return one(r.Table())
	}},
}

func one(table string) ([]string, error) { return []string{table}, nil }

type paperBench struct {
	seed int64
	cold string // fingerprint of the last cold pass; warm passes must match it
}

func newPaperBench(seed int64) bench { return &paperBench{seed: seed} }

func (p *paperBench) setup(l *ledger) error {
	experiments.SetSnapshotCache(true) // drops every cached image
	fp, err := p.pass(l, "_cold_s", nil, func(work func()) { work() })
	p.cold = fp
	return err
}

// pass runs every experiment once, each handed to timed as one part, and
// returns a fingerprint holding each experiment's table hash. With a ledger
// it records each experiment's time under its id and suffix.
func (p *paperBench) pass(l *ledger, suffix string, progress func(runner.Event), timed func(func())) (string, error) {
	experiments.SetPool(&runner.Pool{Workers: paperWorkers, Progress: progress})
	var fp strings.Builder
	for _, e := range paperExperiments {
		var tables []string
		var err error
		t0 := time.Now()
		timed(func() { tables, err = e.run(p.seed) })
		if l != nil {
			l.exp[e.id+suffix] = append(l.exp[e.id+suffix], time.Since(t0).Seconds())
		}
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.id, err)
		}
		h := sha256.New()
		for _, t := range tables {
			io.WriteString(h, t)
		}
		fmt.Fprintf(&fp, "%s=%x ", e.id, h.Sum(nil)[:8])
	}
	return fp.String(), nil
}

func (p *paperBench) rep(m mode, l *ledger, timed func(func())) (outcome, error) {
	var o outcome
	var progress func(runner.Event)
	var col *obs.Collector
	switch m {
	case modeCount:
		// The experiments that report to an observer count their cells'
		// requests, events and simulated time; a one-record span cap keeps
		// the collector small.
		col = obs.NewCollector()
		col.SetRecordCap(1)
		experiments.SetObserver(col)
		defer experiments.SetObserver(nil)
		progress = func(ev runner.Event) {
			if ev.Kind == runner.CellDone {
				o.cells++
			}
		}
	case modeTraced:
		progress = func(ev runner.Event) {
			if ev.Kind == runner.CellDone {
				o.cells++
				l.cellDur = append(l.cellDur, ev.Duration.Seconds())
			}
		}
	}
	var err error
	o.fp, err = p.pass(l, "_s", progress, timed)
	if err != nil {
		return o, err
	}
	if o.fp != p.cold {
		return o, fmt.Errorf("warm pass tables differ from the cold pass's:\n  warm %s\n  cold %s", o.fp, p.cold)
	}
	o.units = o.cells
	if col != nil {
		o.reqs, o.events, o.simNS, err = cellTotals(col)
	}
	return o, err
}

// iso builds the fig3 baseline image the paper's drive experiments share.
func (p *paperBench) iso() (ssd.Config, *ssd.DeviceState, error) {
	cfg := ssd.MQSimBase()
	cfg.FTL.Seed = p.seed
	dev := ssd.NewDevice(sim.NewEngine(), cfg)
	if err := prefill(dev, 85); err != nil {
		return cfg, nil, err
	}
	return cfg, dev.Snapshot(), nil
}

// cellTotals sums, over the cells a collector traced, the host requests
// their devices accepted, the engine events they fired and their final
// simulated clocks. Only the experiments that report to an observer (fig3,
// fleet, tabS3, tabS4, transparency) contribute.
func cellTotals(col *obs.Collector) (reqs, events int64, simNS float64, err error) {
	var buf bytes.Buffer
	if err = col.WriteMetrics(&buf); err != nil {
		return 0, 0, 0, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(f[0], "{")
		v, perr := strconv.ParseInt(f[len(f)-1], 10, 64)
		if perr != nil {
			return 0, 0, 0, fmt.Errorf("metrics line %q: %w", line, perr)
		}
		switch name {
		case "ssdtp_ftl_host_write_requests_total", "ssdtp_ftl_host_read_requests_total":
			reqs += v
		case "ssdtp_sim_events_fired_total":
			events += v
		case "ssdtp_sim_now_ns":
			simNS += float64(v)
		}
	}
	return reqs, events, simNS, nil
}
