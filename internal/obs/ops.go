package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format the ops handler serves.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Route is an extra endpoint mounted on the ops handler — how a service
// hangs its own surfaces (the fleet dashboard's /live, say) off the same
// listener as /metrics.
type Route struct {
	Pattern string
	Handler http.Handler
}

// NewOpsHandler builds the operational HTTP surface of a live service:
//
//	/metrics        Prometheus text exposition of the registry
//	/healthz        liveness probe ("ok")
//	/debug/pprof/*  runtime profiling (CPU, heap, goroutine, trace, ...)
//
// plus any extra routes. The handler is safe to serve concurrently with
// writers to the registry; a nil registry serves an empty exposition.
func NewOpsHandler(m *Metrics, extra ...Route) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		_ = m.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// OpsServer is a running ops endpoint bound to its own listener, kept
// separate from the measurement listeners so scrapes and profiles never
// contend with probe traffic on the accept path.
type OpsServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartOps binds addr (host:port; port 0 picks a free one) and serves
// the ops handler on it until Close or Shutdown.
func StartOps(addr string, m *Metrics, extra ...Route) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listen %s: %w", addr, err)
	}
	o := &OpsServer{ln: ln, srv: &http.Server{Handler: NewOpsHandler(m, extra...)}}
	go func() { _ = o.srv.Serve(ln) }()
	return o, nil
}

// Addr returns the bound address, e.g. "127.0.0.1:9091".
func (o *OpsServer) Addr() string { return o.ln.Addr().String() }

// Close shuts the ops endpoint down immediately.
func (o *OpsServer) Close() error { return o.srv.Close() }
