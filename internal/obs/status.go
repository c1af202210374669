package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// StatusServer is the live jobtracker status endpoint, modelled on the
// Hadoop jobtracker web UI the paper's Grid'5000 deployments exposed:
//
//	/metrics      Prometheus text-format metrics
//	/metrics.json the same registry as a JSON snapshot
//	/debug/pprof  the standard Go profiling endpoints
//
// plus the handlers mounted with Handle (cmd/gepeto mounts the span
// trees of package obs/trace under /trace/ and /analyze/).
type StatusServer struct {
	ln  net.Listener
	reg *Registry
	// Extra, if set, is invoked at each /metrics scrape to append
	// additional exposition lines (e.g. DFS storage gauges).
	Extra func() string
	// ExtraJSON, if set, supplies additional metric points for
	// /metrics.json, appended after the registry snapshot. A clustered
	// jobtracker uses it to expose the federated per-worker metrics in
	// the same snapshot as its own.
	ExtraJSON func() []MetricPoint
	srv       *http.Server
	mux       *http.ServeMux

	mu    sync.Mutex
	extra []string // extra endpoint patterns, for the index page
}

// NewStatusServer starts serving on addr (":0" picks a free port).
// reg may be nil, leaving /metrics to Extra alone.
func NewStatusServer(addr string, reg *Registry) (*StatusServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: status server: %v", err)
	}
	s := &StatusServer{ln: ln, reg: reg}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Handle registers an extra handler on the server's mux (e.g. the
// /trace/ and /analyze/ endpoints wired up by cmd/gepeto, which live in
// obs/trace and so cannot be registered here without an import cycle).
// The pattern is also advertised on the index page.
func (s *StatusServer) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
	s.mu.Lock()
	s.extra = append(s.extra, pattern)
	s.mu.Unlock()
}

// Addr returns the bound address, e.g. "127.0.0.1:43231".
func (s *StatusServer) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *StatusServer) URL() string {
	host := s.Addr()
	// A wildcard listen address is not dialable; point at loopback.
	if strings.HasPrefix(host, "[::]") || strings.HasPrefix(host, "0.0.0.0") {
		_, port, _ := net.SplitHostPort(host)
		host = "127.0.0.1:" + port
	}
	return "http://" + host
}

// Close shuts the server down immediately, dropping in-flight
// requests. Prefer Shutdown for a graceful stop.
func (s *StatusServer) Close() error { return s.srv.Close() }

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish, up to the context deadline. Safe to call more
// than once.
func (s *StatusServer) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *StatusServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "gepeto jobtracker status — %s\n\n", time.Now().Format(time.RFC3339))
	s.mu.Lock()
	extra := strings.Join(s.extra, " ")
	s.mu.Unlock()
	if extra != "" {
		extra = " " + extra
	}
	fmt.Fprintln(w, "endpoints: /metrics /metrics.json /debug/pprof/"+extra)
}

func (s *StatusServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.reg != nil {
		s.reg.WritePrometheus(w)
	}
	if s.Extra != nil {
		fmt.Fprint(w, s.Extra())
	}
}

func (s *StatusServer) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	if s.reg == nil && s.ExtraJSON == nil {
		http.Error(w, "no registry attached", http.StatusNotFound)
		return
	}
	var points []MetricPoint
	if s.reg != nil {
		points = s.reg.Snapshot()
	}
	if s.ExtraJSON != nil {
		points = append(points, s.ExtraJSON()...)
	}
	writeJSON(w, map[string]any{"metrics": points})
}
