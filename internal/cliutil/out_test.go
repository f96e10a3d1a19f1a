package cliutil

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A bad path must fail at Open time — that is the whole point of the package
// — and the error must carry the flag name.
func TestOpenFailsFastWithFlagContext(t *testing.T) {
	_, err := Open("metrics", filepath.Join(t.TempDir(), "missing", "m.txt"))
	if err == nil {
		t.Fatal("Open into a missing directory succeeded")
	}
	if !strings.Contains(err.Error(), "-metrics") {
		t.Fatalf("error %q does not name the flag", err)
	}
}

// An empty path is a disabled output: nil Out, no error, no-op Finish.
func TestDisabledOut(t *testing.T) {
	o, err := Open("trace", "")
	if err != nil || o != nil {
		t.Fatalf("Open(\"\") = %v, %v; want nil, nil", o, err)
	}
	if o.Enabled() || o.Path() != "" {
		t.Fatal("disabled Out claims to be enabled")
	}
	called := false
	if err := o.Finish(func(*os.File) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("Finish on a disabled Out ran the writer")
	}
}

// Finish delivers the payload and wraps writer errors with flag and path.
func TestFinishWritesAndWrapsErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	o, err := Open("trace", path)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Enabled() || o.Path() != path {
		t.Fatalf("Out not enabled for %s", path)
	}
	if err := o.Finish(func(f *os.File) error { _, err := f.WriteString("row\n"); return err }); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "row\n" {
		t.Fatalf("file contents %q, %v", got, err)
	}

	o, err = Open("timeline", filepath.Join(t.TempDir(), "t.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("disk on fire")
	werr := o.Finish(func(*os.File) error { return sentinel })
	if !errors.Is(werr, sentinel) {
		t.Fatalf("Finish error %v does not wrap the writer error", werr)
	}
	if !strings.Contains(werr.Error(), "-timeline") || !strings.Contains(werr.Error(), "t.csv") {
		t.Fatalf("error %q lacks flag or path context", werr)
	}
}

// Dir validates eagerly: creates missing directories, rejects non-directories.
func TestDir(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "a", "b")
	if err := Dir("csv", dir); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("Dir did not create %s: %v", dir, err)
	}
	if err := Dir("csv", ""); err != nil {
		t.Fatalf("empty dir flag must be a no-op, got %v", err)
	}
	file := filepath.Join(base, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Dir("csv", file)
	if err == nil || !strings.Contains(err.Error(), "-csv") {
		t.Fatalf("Dir on a plain file: err %v, want flag-wrapped failure", err)
	}

	f, path, err := Create("csv", dir, "series.csv")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if filepath.Dir(path) != dir {
		t.Fatalf("Create placed file at %s", path)
	}
}

// MustInterval exits with status 2 and names the flag when the interval is
// below its minimum; the failing cases run in a child process because Failf
// exits.
func TestMustInterval(t *testing.T) {
	if flag := os.Getenv("CLIUTIL_INTERVAL_CHILD"); flag != "" {
		if flag == "timeline-ms" {
			MustInterval(flag, -5, 0)
		} else {
			MustInterval(flag, 0, 1)
		}
		os.Exit(0)
	}
	MustInterval("telemetry-ms", 1, 1) // valid values return
	MustInterval("timeline-ms", 0, 0)
	for _, flag := range []string{"telemetry-ms", "timeline-ms"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMustInterval$")
		cmd.Env = append(os.Environ(), "CLIUTIL_INTERVAL_CHILD="+flag)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s: child exited with %v, want status 2 (output %q)", flag, err, out)
		}
		if !strings.Contains(string(out), "-"+flag+": ") {
			t.Fatalf("%s: error %q does not name the flag", flag, out)
		}
	}
}
