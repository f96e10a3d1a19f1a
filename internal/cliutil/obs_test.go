package cliutil

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the front end on the arguments in CLIUTIL_OBS_ARGS (one per
// line) when that is set, so tests can check its exits in a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CLIUTIL_OBS_ARGS"); ok {
		fs := flag.NewFlagSet("obs", flag.ExitOnError)
		o := RegisterObs(fs)
		if err := fs.Parse(strings.Split(args, "\n")); err != nil {
			os.Exit(2)
		}
		o.Start(nil).Cell("cell").Metrics().Set("m", 1)
		o.Finish()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runObs runs the front end on args in a child process.
func runObs(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CLIUTIL_OBS_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

func TestObsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("obs", flag.ContinueOnError)
	RegisterObs(fs)
	want := map[string]string{
		"trace": "", "trace-perfetto": "", "trace-cap": "0",
		"timeline": "", "timeline-ms": "10", "telemetry": "", "telemetry-ms": "1",
		"metrics": "", "http": "",
	}
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if def, ok := want[f.Name]; !ok || f.DefValue != def {
			t.Errorf("-%s default %q; want %q (registered: %v)", f.Name, f.DefValue, def, ok)
		}
	})
	if n != len(want) {
		t.Errorf("registered %d flags, want %d", n, len(want))
	}

	// With nothing requested the observability layer stays off.
	o := RegisterObs(flag.NewFlagSet("obs", flag.ContinueOnError))
	if col := o.Start(nil); col != nil {
		t.Fatal("Start with no export requested built a Collector")
	}
	o.Finish()
}

// A bad interval or output path fails with status 2, naming the flag,
// before anything is written; a good run writes every requested export.
func TestObsStart(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-timeline", path("a.csv"), "-timeline-ms", "0"}, "-timeline-ms: "},
		{[]string{"-timeline", path("a.csv"), "-timeline-ms", "-5"}, "-timeline-ms: "},
		{[]string{"-telemetry", path("a.jsonl"), "-telemetry-ms", "0"}, "-telemetry-ms: "},
		{[]string{"-timeline", path("a.csv"), "-http", "127.0.0.1:0", "-telemetry-ms", "0"}, "-telemetry-ms: "},
		{[]string{"-trace", path("a.jsonl"), "-metrics", path("missing/m.txt")}, "-metrics: "},
	} {
		out, code := runObs(t, c.args...)
		if code != 2 || !strings.HasPrefix(out, c.flag) {
			t.Errorf("%v: exit %d, output %q; want exit 2 and %q", c.args, code, out, c.flag)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Intervals are checked before any output is created; a bad path
		// leaves only the empty files opened before it.
		intervalErr := strings.HasSuffix(c.flag, "-ms: ")
		for _, e := range entries {
			if info, err := e.Info(); err != nil || info.Size() != 0 || intervalErr {
				t.Errorf("%v: %s created before the failure", c.args, e.Name())
			}
			os.Remove(path(e.Name()))
		}
	}

	out, code := runObs(t, "-trace", path("t.jsonl"), "-trace-perfetto", path("p.json"),
		"-timeline", path("t.csv"), "-telemetry", path("t.jsonl2"), "-metrics", path("m.txt"))
	if code != 0 {
		t.Fatalf("exit %d, output %q", code, out)
	}
	for name, want := range map[string]string{
		"p.json": `"traceEvents"`, "t.csv": "cell,t_ns", "m.txt": `m{cell="cell"} 1`,
	} {
		got, err := os.ReadFile(path(name))
		if err != nil || !strings.Contains(string(got), want) {
			t.Errorf("%s = %q, %v; want it to contain %q", name, got, err, want)
		}
	}
	for _, name := range []string{"t.jsonl", "p.json", "t.csv", "t.jsonl2", "m.txt"} {
		if !strings.Contains(out, "(wrote "+path(name)+")") {
			t.Errorf("stderr %q does not name %s", out, name)
		}
	}
}

// -http alone builds the Collector, serves the caller's /progress view and
// stops serving at Finish.
func TestObsHTTP(t *testing.T) {
	fs := flag.NewFlagSet("obs", flag.ContinueOnError)
	o := RegisterObs(fs)
	if err := fs.Parse([]string{"-http", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if col := o.Start(func() any { return "progress" }); col == nil {
		t.Fatal("Start with -http built no Collector")
	}
	if o.shutdown == nil {
		t.Fatal("Start with -http started no ops endpoint")
	}
	o.Finish()
}
