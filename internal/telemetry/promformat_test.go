package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

// This file validates WritePrometheus against a strict reading of the
// text exposition format (version 0.0.4), the parser of promtext_test.go;
// these wrappers just adapt errors to the test.

func parsePromExposition(t *testing.T, out string) []promSample {
	t.Helper()
	samples, err := parseProm(out)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func checkPromHistograms(t *testing.T, samples []promSample) {
	t.Helper()
	n, err := checkHistograms(samples)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no histogram series validated")
	}
}

// TestWritePrometheusStrictFormat renders a registry shaped like the
// production ones — labeled counter shards, gauges, multiple labeled
// histograms, runtime GaugeFuncs — and runs the whole payload through
// the strict parser.
func TestWritePrometheusStrictFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("resolver_queries_total", "Queries resolved.").Add(100)
	for i := 0; i < 3; i++ {
		r.Counter(fmt.Sprintf(`resolver_shard_total{server="%d"}`, i), "Per-shard queries.").Add(uint64(10 * (i + 1)))
	}
	r.Gauge("pdns_store_bytes", "Store footprint.").Set(1.5e6)
	r.Gauge("clock_skew_s", "").Set(-0.25)
	for i := 0; i < 2; i++ {
		h := r.Histogram(fmt.Sprintf(`resolver_latency_ns{server="%d"}`, i), "Resolve latency.")
		for v := uint64(1); v < 1<<20; v <<= 3 {
			h.Observe(v)
		}
	}
	r.Histogram("empty_hist_ns", "Never observed.")
	r.GaugeFunc("custom_fn", "Computed.", func() float64 { return 42 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := parsePromExposition(t, sb.String())
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}
	checkPromHistograms(t, samples)

	// Spot-check the parse itself recovered the registered values.
	byKey := map[string]float64{}
	for _, sm := range samples {
		byKey[promSeriesKey(sm)+"/"+sm.Labels["le"]] = sm.Value
	}
	if got := byKey[`resolver_shard_total{server=1}/`]; got != 20 {
		t.Errorf("shard 1 = %v, want 20", got)
	}
	if got := byKey["clock_skew_s{}/"]; got != -0.25 {
		t.Errorf("negative gauge = %v, want -0.25", got)
	}
}

// TestWritePrometheusMetricsEndpointStrict runs the strict parser over
// the real /metrics payload of a served registry, go_* runtime gauges
// and all.
func TestWritePrometheusMetricsEndpointStrict(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_total", "Things.").Add(1)
	r.Histogram("app_ns", "Latency.").Observe(7)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "go_goroutines") {
		t.Fatalf("runtime gauges missing from exposition:\n%s", out)
	}
	samples := parsePromExposition(t, out)
	checkPromHistograms(t, samples)
	names := map[string]bool{}
	for _, sm := range samples {
		names[sm.Name] = true
	}
	for _, want := range []string{"app_total", "app_ns_sum", "app_ns_count", "go_goroutines"} {
		if !names[want] {
			t.Errorf("exposition missing %s", want)
		}
	}
}

func TestLabelValue(t *testing.T) {
	for _, tc := range []struct{ name, base, key, want string }{
		{`serve_qps{pop="2"}`, "serve_qps", "pop", "2"},
		{`x{a="1",pop="0"}`, "x", "pop", "0"},
		{`serve_qps`, "serve_qps", "pop", ""},
		{`x{a="1"}`, "x", "pop", ""},
		{`x{a="1,pop=9",pop="3"}`, "x", "pop", "3"}, // a quoted comma splits nothing
		{`udp_scored_total{verdict="disposable",pop="0"}`, "udp_scored_total", "verdict", "disposable"},
	} {
		base, labels := SplitSeries(tc.name)
		if base != tc.base {
			t.Fatalf("SplitSeries(%q) base = %q, want %q", tc.name, base, tc.base)
		}
		if got := LabelValue(labels, tc.key); got != tc.want {
			t.Fatalf("LabelValue(%q, %q) = %q, want %q", labels, tc.key, got, tc.want)
		}
	}
}
