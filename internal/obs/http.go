package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// Live ops endpoint (DESIGN.md §9). Long -full sweeps are opaque from the
// outside: this serves the standard Go observability surface (net/http/pprof,
// expvar), a Prometheus-style /metrics snapshot of the cells completed so
// far, and a /progress JSON view of the runner's throughput and ETA. The
// endpoint never touches in-flight cells — tracers are single-threaded sim
// state — so it reads only what MarkDone has published.

// View is an extra read-only page served by ServeOps; the write callback
// renders the current contents. Like /metrics, a view must only expose state
// already published by completed cells (e.g. a telemetry Set's done cells) —
// never a running engine's.
type View struct {
	Path  string // e.g. "/telemetry"
	Write func(w io.Writer) error
}

// ServeOps starts an HTTP server on addr (e.g. ":6060"; ":0" picks a free
// port) serving:
//
//	/debug/pprof/   runtime profiling (CPU, heap, goroutines, ...)
//	/debug/vars     expvar JSON
//	/metrics        Prometheus-style text for cells completed so far
//	/progress       JSON from the progress callback (may be nil)
//
// plus any caller-supplied views (CLIs add /telemetry here). It returns the
// bound address and a shutdown function. col and progress may be nil; the
// corresponding views are then empty.
func ServeOps(addr string, col *Collector, progress func() any, views ...View) (string, func(), error) {
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
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v any
		if progress != nil {
			v = progress()
		}
		_ = json.NewEncoder(w).Encode(v)
	})
	index := "ssdtp ops endpoint\n\n/debug/pprof/\n/debug/vars\n/metrics\n/progress\n"
	for _, v := range views {
		mux.HandleFunc(v.Path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain")
			_ = v.Write(w)
		})
		index += v.Path + "\n"
	}
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
