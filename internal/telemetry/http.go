package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// splitSeries separates an optional label set from a metric name:
// `resolver_queries_total{server="0"}` → base "resolver_queries_total",
// labels `server="0"`.
func splitSeries(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// joinLabels renders a label set ("" for none) plus any extra pairs.
func joinLabels(labels string, extra ...string) string {
	parts := make([]string, 0, 1+len(extra))
	if labels != "" {
		parts = append(parts, labels)
	}
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4). Series sharing a base name are grouped under
// one # TYPE header; histograms expose cumulative le buckets plus _sum
// and _count. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	typed := make(map[string]bool)
	for _, e := range r.sortedEntries() {
		base, labels := splitSeries(e.name)
		if !typed[base] {
			typed[base] = true
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, typeName(e.kind)); err != nil {
				return err
			}
		}
		var err error
		switch e.kind {
		case KindCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", base, joinLabels(labels), e.counterValue())
		case KindGauge:
			_, err = fmt.Fprintf(w, "%s%s %s\n", base, joinLabels(labels),
				strconv.FormatFloat(e.gaugeValue(), 'g', -1, 64))
		case KindHistogram:
			err = writePromHistogram(w, base, labels, e.histValue())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func typeName(k Kind) string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

func writePromHistogram(w io.Writer, base, labels string, s HistogramSnapshot) error {
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			base, joinLabels(labels, fmt.Sprintf("le=%q", strconv.FormatUint(b.Hi, 10))), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, joinLabels(labels, `le="+Inf"`), s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", base, joinLabels(labels), s.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, joinLabels(labels), s.Count)
	return err
}

// Handler returns the telemetry HTTP mux:
//
//	GET /metrics         Prometheus text exposition
//	GET /debug/pprof/*   net/http/pprof profiles
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "dnsnoise telemetry\n\n/metrics\n/debug/pprof/\n")
	})
	return mux
}

// HTTPServer is a running telemetry endpoint.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
	mux *http.ServeMux
}

// Addr returns the bound address (host:port), useful with ":0".
func (h *HTTPServer) Addr() string { return h.ln.Addr().String() }

// Close shuts the endpoint down.
func (h *HTTPServer) Close() error { return h.srv.Close() }

// Handle mounts handler at pattern on the endpoint — how qlog attaches
// /debug/qlog next to /metrics. ServeMux registration is safe while
// serving; more-specific patterns win over the registry's catch-all.
func (h *HTTPServer) Handle(pattern string, handler http.Handler) {
	if h == nil {
		return
	}
	h.mux.Handle(pattern, handler)
}

// Serve binds addr and serves the telemetry handler until Close. The
// returned server reports the resolved address, so addr may use port 0.
// The registry's routes sit under a catch-all, leaving the returned
// server's Handle free to mount additional debug routes.
func (r *Registry) Serve(addr string) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", r.Handler())
	h := &HTTPServer{ln: ln, srv: &http.Server{Handler: mux}, mux: mux}
	go func() { _ = h.srv.Serve(ln) }()
	return h, nil
}
