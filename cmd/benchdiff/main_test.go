package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// specFixture is a two-metric BENCHMARK.json: one lower-is-better metric
// with a 25 % bound and one higher-is-better metric with a 10 % bound.
const specFixture = `{
  "end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
  ]
}`

// run is one perfbench result line with both fixture metrics.
func run(wall, rps float64) string {
	return fmt.Sprintf(`{"correct":true,"attempted":8,"failed":0,"metrics":{"req_per_s":{"value":%g,"unit":"1/s"},"wall_s":{"value":%g,"unit":"s"}}}`, rps, wall)
}

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiff(t *testing.T) {
	specs, err := loadSpec(write(t, "BENCHMARK.json", specFixture))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		base, head []string
		fail       string // a substring of the failure reasons; "" = passes
	}{
		{"identical", []string{run(1, 100)}, []string{run(1, 100)}, ""},
		// The median of 1.0, 1.1 and 5.0 is 1.1, so 1.3 is 18 % worse; the
		// mean, 2.37, would call 1.5 a gain.
		{"odd median within bound", []string{run(1, 100), run(5, 100), run(1.1, 100)},
			[]string{run(1.3, 100), run(1.2, 100), run(1.35, 100)}, ""},
		{"odd median beyond bound", []string{run(1, 100), run(5, 100), run(1.1, 100)},
			[]string{run(1.5, 100), run(1.4, 100), run(1.2, 100)}, "wall_s regressed 27.3%"},
		// The median of an even count is the mean of the middle two: 1.1.
		{"even median within bound", []string{run(1.2, 100), run(1, 100)},
			[]string{run(1.2, 100), run(1.5, 100)}, ""},
		{"even median beyond bound", []string{run(1.2, 100), run(1, 100)},
			[]string{run(1.3, 100), run(1.5, 100)}, "wall_s regressed 27.3%"},
		{"lower is better gains", []string{run(1, 100)}, []string{run(0.1, 100)}, ""},
		{"higher is better gains", []string{run(1, 100)}, []string{run(1, 500)}, ""},
		{"higher is better within bound", []string{run(1, 100)}, []string{run(1, 91)}, ""},
		{"higher is better beyond bound", []string{run(1, 100)}, []string{run(1, 85)}, "req_per_s regressed 15.0%"},
		{"incorrect head", []string{run(1, 100)},
			[]string{run(1, 100), `{"correct":false,"attempted":8,"failed":1,"metrics":{}}`}, "head run 2 is incorrect"},
		{"incorrect base", []string{`{"correct":false,"attempted":8,"failed":1,"metrics":{"wall_s":{"value":1},"req_per_s":{"value":100}}}`},
			[]string{run(1, 100)}, "base run 1 is incorrect"},
		{"failed rep", []string{run(1, 100)},
			[]string{`{"correct":true,"attempted":8,"failed":1,"metrics":{"wall_s":{"value":1},"req_per_s":{"value":100}}}`}, "head run 1 is incorrect"},
		{"metric missing from head", []string{run(1, 100)},
			[]string{`{"correct":true,"attempted":8,"failed":0,"metrics":{"wall_s":{"value":1}}}`}, "req_per_s is missing from head run 1"},
		{"metric missing from base", []string{`{"correct":true,"attempted":8,"failed":0,"metrics":{"req_per_s":{"value":100}}}`},
			[]string{run(1, 100)}, "wall_s is missing from base run 1"},
	}
	for _, c := range cases {
		// Lines that are not result lines, such as the "== workload" header
		// of a -workload all run, are skipped.
		base, err := loadResults(write(t, "base.out", "== drive-gc-write\n"+strings.Join(c.base, "\n")+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		head, err := loadResults(write(t, "head.out", strings.Join(c.head, "\n")+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		fails := strings.Join(diff(io.Discard, specs, base, head), "; ")
		if (fails == "") != (c.fail == "") || !strings.Contains(fails, c.fail) {
			t.Errorf("%s: failures %q, want %q", c.name, fails, c.fail)
		}
	}
}

func TestLoadRejects(t *testing.T) {
	for _, spec := range []string{
		`{"end_to_end": []}`,
		`{"end_to_end": [{"name": "wall_s", "better": "faster", "bound": 0.25}]}`,
		`{"end_to_end": [{"name": "wall_s", "better": "lower"}]}`,
	} {
		if _, err := loadSpec(write(t, "BENCHMARK.json", spec)); err == nil {
			t.Errorf("loadSpec accepted %s", spec)
		}
	}
	if _, err := loadResults(write(t, "empty.out", "== drive-gc-write\n")); err == nil {
		t.Error("loadResults accepted a file without result lines")
	}
}
