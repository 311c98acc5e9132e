package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// SplitSeries separates a series name from its brace-wrapped label set:
// `resolver_queries_total{server="0"}` → base "resolver_queries_total",
// labels `server="0"`. A name without labels returns labels == "".
func SplitSeries(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// LabelValue returns the unquoted value of key in a label set such as
// `verdict="benign",pop="2"` (the labels SplitSeries returns), or "" when
// key is absent. A comma inside a quoted value does not end its pair.
func LabelValue(labels, key string) string {
	start, inQuote := 0, false
	for i := 0; i <= len(labels); i++ {
		switch {
		case i < len(labels) && labels[i] == '"':
			inQuote = !inQuote
		case i == len(labels) || labels[i] == ',' && !inQuote:
			if k, v, ok := strings.Cut(labels[start:i], "="); ok && k == key {
				return strings.Trim(v, `"`)
			}
			start = i + 1
		}
	}
	return ""
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
		base, labels := SplitSeries(e.name)
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

// ParseTime reads an HTTP query parameter naming an instant: RFC3339(Nano)
// or Unix seconds (integer or fractional). Empty means unset.
func ParseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return t, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	sec, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(sec) || math.IsInf(sec, 0) {
		return time.Time{}, fmt.Errorf("want RFC3339 or unix seconds, got %q", s)
	}
	return time.Unix(0, int64(sec*float64(time.Second))), nil
}
