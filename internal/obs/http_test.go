package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"ssdtp/internal/sim"
	"ssdtp/internal/telemetry"
)

// The ops endpoint must serve the live views over plain HTTP: a metrics
// snapshot of done cells only, the progress callback's JSON, expvar, and the
// index. Listens on a kernel-assigned port so tests never collide.
func TestServeOpsSmoke(t *testing.T) {
	col := NewCollector()
	col.SetTelemetry(sim.Millisecond)
	done := col.Cell("grid/done")
	done.Metrics().Set("ssdtp_x", 7)
	done.SetPageSource(func(p *telemetry.Page) { p.Drives = 1 })
	done.pages.Observe(sim.Millisecond)
	col.MarkDone("grid/done")
	running := col.Cell("grid/running")
	running.Metrics().Set("ssdtp_x", 9)
	running.SetPageSource(func(p *telemetry.Page) { p.Drives = 1 })
	running.pages.Observe(sim.Millisecond)

	addr, shutdown, err := ServeOps("127.0.0.1:0", col, func() any {
		return map[string]int{"done": 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, `ssdtp_x{cell="grid/done"} 7`) {
		t.Fatalf("/metrics missing done cell:\n%s", body)
	}
	// In-flight cells are single-threaded sim state; the live view must not
	// touch them.
	if strings.Contains(body, "grid/running") {
		t.Fatalf("/metrics leaked an in-flight cell:\n%s", body)
	}

	code, body = get("/telemetry")
	if code != http.StatusOK {
		t.Fatalf("/telemetry status %d", code)
	}
	if !strings.HasPrefix(body, `{"cell":"grid/done","t":1000000,`) || strings.Count(body, "\n") != 1 {
		t.Fatalf("/telemetry = %q, want the done cell's one row", body)
	}

	code, body = get("/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var prog map[string]int
	if err := json.Unmarshal([]byte(body), &prog); err != nil || prog["done"] != 1 {
		t.Fatalf("/progress = %q (err %v)", body, err)
	}

	if code, _ := get("/debug/vars"); code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "ssdtp ops endpoint") {
		t.Fatalf("index: status %d body %q", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

// Nil collector and nil progress are the ssdfio-without-tracing case: the
// endpoint must still serve empty views rather than crash.
func TestServeOpsNilSafe(t *testing.T) {
	addr, shutdown, err := ServeOps("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != "null" {
		t.Fatalf("/progress with nil callback = %q, want null", body)
	}
}
