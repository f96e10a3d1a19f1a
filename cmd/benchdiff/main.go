// Command benchdiff compares two sets of perfbench result lines — runs of
// one workload on a base revision and on the head — and fails when the head
// is worse than the base on an end-to-end metric of BENCHMARK.json by more
// than that metric's bound, or when any run reports an incorrect result.
// `make perf-diff REV=<rev>` records both sets and runs it.
//
// Usage:
//
//	benchdiff BENCHMARK.json base.out head.out
//
// A results file is the stdout of one or more `perfbench/run.sh --trace 0`
// runs: every line that begins with '{' is one run's result line, and other
// lines are ignored. Each side's value of a metric is its median over the
// side's runs; the metric's "better" direction and relative "bound" come from
// the BENCHMARK.json end_to_end list. A result line with "correct":false or a
// non-zero "failed" count, on either side, fails the comparison, as does a
// metric missing from any run.
//
// Each metric's line also shows how many pairs the head won — the i-th base
// run against the i-th head run, the order `make perf-diff` alternates them
// in — and the spread between the base runs' quartiles, the noise a gain
// must exceed. They inform the reader; the pass/fail rule uses the medians
// alone.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // largest allowed relative regression
}

// result is one perfbench result line.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func loadSpec(path string) ([]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	for _, m := range doc.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || !(m.Bound > 0) {
			return nil, fmt.Errorf("%s: metric %q needs better lower|higher and a positive bound", path, m.Name)
		}
	}
	return doc.EndToEnd, nil
}

func loadResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []result
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var r result
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		rs = append(rs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no perfbench result lines", path)
	}
	return rs, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the upper and lower quartiles of
// xs, each interpolated linearly between order statistics.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return q(0.75) - q(0.25)
}

// pairsWon counts the pairs (base[i], head[i]) in which head is strictly
// better, and how many pairs there are.
func pairsWon(better string, base, head []float64) (won, pairs int) {
	pairs = min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if regression(better, base[i], head[i]) < 0 {
			won++
		}
	}
	return won, pairs
}

// regression is how much worse head is than base, relative to base: positive
// when head is worse, negative when it is better.
func regression(better string, base, head float64) float64 {
	if head == base {
		return 0
	}
	r := (head - base) / base
	if better == "higher" {
		r = -r
	}
	return r
}

// diff prints the comparison of every metric in specs to w and returns why it
// fails, or nothing when head is within every bound and every run is correct.
func diff(w io.Writer, specs []metricSpec, base, head []result) []string {
	var fails []string
	sides := []struct {
		name string
		rs   []result
	}{{"base", base}, {"head", head}}
	for _, side := range sides {
		for i, r := range side.rs {
			if !r.Correct || r.Failed != 0 {
				fails = append(fails, fmt.Sprintf("%s run %d is incorrect (correct:%t, failed:%d)", side.name, i+1, r.Correct, r.Failed))
			}
		}
	}
	fmt.Fprintf(w, "%-16s %14s %14s %9s %7s %7s %12s  (medians of %d base and %d head runs)\n",
		"metric", "base", "head", "worse by", "bound", "won", "base IQR", len(base), len(head))
	for _, m := range specs {
		var vals [2][]float64
		missing := false
		for s, side := range sides {
			for i, r := range side.rs {
				v, ok := r.Metrics[m.Name]
				if !ok {
					fails = append(fails, fmt.Sprintf("%s is missing from %s run %d", m.Name, side.name, i+1))
					missing = true
					continue
				}
				vals[s] = append(vals[s], v.Value)
			}
		}
		if missing {
			continue
		}
		b, h := median(vals[0]), median(vals[1])
		r := regression(m.Better, b, h)
		status := "ok"
		if r > m.Bound {
			status = "FAIL"
			fails = append(fails, fmt.Sprintf("%s regressed %.1f%% (bound %.0f%%, %s is better)", m.Name, 100*r, 100*m.Bound, m.Better))
		}
		won, pairs := pairsWon(m.Better, vals[0], vals[1])
		fmt.Fprintf(w, "%-16s %14.6g %14.6g %8.1f%% %6.0f%% %7s %12.4g  %s\n", m.Name, b, h, 100*r, 100*m.Bound,
			fmt.Sprintf("%d/%d", won, pairs), quartileSpread(vals[0]), status)
	}
	return fails
}

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff BENCHMARK.json base.out head.out")
		os.Exit(2)
	}
	specs, err := loadSpec(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var sets [2][]result
	for i, path := range os.Args[2:] {
		if sets[i], err = loadResults(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	if fails := diff(os.Stdout, specs, sets[0], sets[1]); len(fails) > 0 {
		fmt.Println("benchdiff: FAIL:\n  " + strings.Join(fails, "\n  "))
		os.Exit(1)
	}
	fmt.Println("benchdiff: head is within every end-to-end bound of base")
}
