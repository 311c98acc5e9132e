package telemetry

import (
	"strings"
	"testing"
)

// TestRegistryWithLabel: a view hands back the same instrument when a name
// is registered through it twice, a view of a view appends both labels, and
// a nil registry's view is nil.
func TestRegistryWithLabel(t *testing.T) {
	r := NewRegistry()
	v := r.WithLabel("pop", "0")
	v.Counter("ingest_queries_total", "Queries.").Add(10)
	if got := v.Counter("ingest_queries_total", ""); got.Value() != 10 {
		t.Fatalf("re-registering through the view returned %d, want the same counter", got.Value())
	}
	if got := r.Counter(`ingest_queries_total{pop="0"}`, ""); got.Value() != 10 {
		t.Fatalf("parent sees %d under the labelled name, want 10", got.Value())
	}
	if nested := r.WithLabel("a", "1").WithLabel("b", "2"); nested.Counter("x_total", "") != r.Counter(`x_total{a="1",b="2"}`, "") {
		t.Error("a view of a view does not append both labels")
	}
	var nilReg *Registry
	if nilReg.WithLabel("pop", "0") != nil {
		t.Error("a nil registry's view is not nil")
	}
}

// TestSnapshotWithLabelAndMerge registers the same instruments through two
// pop views of one registry and checks the parent's snapshot: names gain
// the pop label after any of their own, and each pop keeps its own series
// rather than combining with the other's.
func TestSnapshotWithLabelAndMerge(t *testing.T) {
	r := NewRegistry()
	for pop, n := range []uint64{10, 32} {
		v := r.WithLabel("pop", string(rune('0'+pop)))
		v.Counter("ingest_queries_total", "Queries.").Add(n)
		v.CounterFunc(`resolver_queries_total{server="0"}`, "Queries.", func() uint64 { return n + 1 })
		h := v.Histogram("resolve_ns", "Latency.")
		for x := uint64(1); x <= n; x++ {
			h.Observe(x)
		}
	}
	s := r.Snapshot()
	for name, want := range map[string]uint64{
		`ingest_queries_total{pop="0"}`:              10,
		`ingest_queries_total{pop="1"}`:              32,
		`resolver_queries_total{server="0",pop="0"}`: 11,
		`resolver_queries_total{server="0",pop="1"}`: 33,
	} {
		if got, ok := s.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if _, ok := s.Counters["ingest_queries_total"]; ok {
		t.Error("unlabelled ingest_queries_total present: the views must not share a series")
	}
	for name, want := range map[string]uint64{`resolve_ns{pop="0"}`: 10, `resolve_ns{pop="1"}`: 32} {
		if got := s.Histograms[name].Count; got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
}

// TestSnapshotWritePrometheusStrict renders a registry holding three pop
// views and runs the exposition through the strict parser: every pop's
// series is there under its label, and the runtime gauges appear once.
func TestSnapshotWritePrometheusStrict(t *testing.T) {
	r := NewRegistry()
	for pop := 0; pop < 3; pop++ {
		v := r.WithLabel("pop", string(rune('0'+pop)))
		v.Counter("ingest_queries_total", "Queries.").Add(uint64(100 * (pop + 1)))
		v.Gauge("pdns_store_bytes", "Bytes.").Set(float64(1000 * (pop + 1)))
		h := v.Histogram(`resolve_ns{server="0"}`, "Latency.")
		for x := uint64(1); x < 1<<16; x <<= 1 {
			h.Observe(x)
		}
	}
	var sb strings.Builder
	if err := r.WithLabel("pop", "9").WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProm(sb.String())
	if err != nil {
		t.Fatalf("labelled exposition failed strict parse: %v\n%s", err, sb.String())
	}
	n, err := checkHistograms(samples)
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Fatalf("validated %d histogram series, want >= 3", n)
	}
	pops := map[string]bool{}
	var total float64
	goroutines := 0
	for _, sm := range samples {
		switch sm.Name {
		case "ingest_queries_total":
			pops[sm.Labels["pop"]] = true
			total += sm.Value
		case "go_goroutines":
			goroutines++
		}
	}
	if len(pops) != 3 || total != 600 {
		t.Fatalf("per-pop counters wrong: pops=%v total=%v", pops, total)
	}
	if goroutines != 1 {
		t.Fatalf("go_goroutines appears %d times, want once", goroutines)
	}
}
