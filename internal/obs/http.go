package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// Live ops endpoint (DESIGN.md §9). Long -full sweeps are opaque from the
// outside: this serves the standard Go observability surface (net/http/pprof,
// expvar), a Prometheus-style /metrics snapshot and a /telemetry log-page
// stream of the cells completed so far, and a /progress JSON view of the
// runner's throughput and ETA. The
// endpoint never touches in-flight cells — tracers are single-threaded sim
// state — so it reads only what MarkDone has published.

// ServeOps starts an HTTP server on addr (e.g. ":6060"; ":0" picks a free
// port) serving:
//
//	/debug/pprof/   runtime profiling (CPU, heap, goroutines, ...)
//	/debug/vars     expvar JSON
//	/metrics        Prometheus-style text for cells completed so far
//	/telemetry      log-page JSONL for cells completed so far
//	/progress       JSON from the progress callback (may be nil)
//
// It returns the bound address and a shutdown function. col and progress may
// be nil; the corresponding views are then empty, as is /telemetry unless
// the collector's telemetry export is enabled.
func ServeOps(addr string, col *Collector, progress func() any) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = col.WriteMetricsDone(w)
	})
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		_ = col.WriteTelemetryJSONLDone(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v any
		if progress != nil {
			v = progress()
		}
		_ = json.NewEncoder(w).Encode(v)
	})
	const index = "ssdtp ops endpoint\n\n/debug/pprof/\n/debug/vars\n/metrics\n/telemetry\n/progress\n"
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		_, _ = w.Write([]byte(index))
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
