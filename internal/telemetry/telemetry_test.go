package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dnsnoise/internal/stats"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should stay empty")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.CounterFunc("x", "", nil)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	var tr *Tracer
	sp := tr.Start("x")
	sp.AddItems(1)
	sp.End()
	if tr.Roots() != nil {
		t.Fatal("nil tracer should have no roots")
	}
}

func TestCounterConcurrentHammer(t *testing.T) {
	const workers, perWorker = 16, 10_000
	var c Counter
	var g Gauge
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(uint64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		lo, hi uint64
	}{
		{0, 0, 1},
		{1, 1, 2},
		{2, 2, 4},
		{3, 2, 4},
		{4, 4, 8},
		{1023, 512, 1024},
		{1024, 1024, 2048},
		{1 << 62, 1 << 62, 1 << 63},
	}
	for _, tc := range cases {
		var h Histogram
		h.Observe(tc.v)
		s := h.Snapshot()
		if len(s.Buckets) != 1 {
			t.Fatalf("Observe(%d): %d buckets, want 1", tc.v, len(s.Buckets))
		}
		b := s.Buckets[0]
		if b.Lo != tc.lo || b.Hi != tc.hi || b.Count != 1 {
			t.Fatalf("Observe(%d) landed in [%d,%d) count %d, want [%d,%d) count 1",
				tc.v, b.Lo, b.Hi, b.Count, tc.lo, tc.hi)
		}
	}
}

// TestHistogramQuantileAccuracy checks the power-of-two-bucket quantile
// estimate against the exact stats.Quantile over the same sample: the
// estimate must stay within one bucket (a factor of two) of the truth.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	sample := make([]float64, 0, 20_000)
	for i := 0; i < 20_000; i++ {
		// Long-tailed values spanning several decades, like latencies.
		v := uint64(math.Exp(rng.Float64()*12)) + 1
		h.Observe(v)
		sample = append(sample, float64(v))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact, err := stats.Quantile(sample, q)
		if err != nil {
			t.Fatal(err)
		}
		est := h.Quantile(q)
		if est < exact/2 || est > exact*2 {
			t.Fatalf("q=%v: estimate %v not within a factor of 2 of exact %v", q, est, exact)
		}
	}
}

func TestRegistryFuncsAndReuse(t *testing.T) {
	r := NewRegistry()
	v := uint64(41)
	r.CounterFunc("fn_total", "", func() uint64 { return v })
	r.GaugeFunc("fn_gauge", "", func() float64 { return 2.5 })
	var sh1, sh2 Histogram
	sh1.Observe(4)
	sh2.Observe(4)
	r.HistogramFunc("fn_hist", "", func() HistogramSnapshot {
		return SnapshotHistograms(&sh1, &sh2)
	})
	s := r.Snapshot()
	if s.Counter("fn_total") != 41 {
		t.Fatalf("counter func = %d, want 41", s.Counter("fn_total"))
	}
	if s.Gauges["fn_gauge"] != 2.5 {
		t.Fatalf("gauge func = %v, want 2.5", s.Gauges["fn_gauge"])
	}
	if hs := s.Histograms["fn_hist"]; hs.Count != 2 || hs.Buckets[0].Count != 2 {
		t.Fatalf("merged hist = %+v, want count 2 in one bucket", hs)
	}
	// Same name returns the same instrument.
	c := r.Counter("dup_total", "")
	c.Add(2)
	r.Counter("dup_total", "").Add(3)
	if c.Value() != 5 {
		t.Fatalf("re-registered counter = %d, want 5", c.Value())
	}
	// Kind mismatch panics.
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch should panic")
		}
	}()
	r.Gauge("dup_total", "")
}

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	day := tr.Start("2011-12-01")
	prep := tr.Start("prepare")
	prep.End()
	res := tr.Start("resolve")
	res.AddItems(1000)
	res.End()
	day.End()
	other := tr.Start("mine")
	other.AddItems(7)
	other.End()

	roots := tr.Roots()
	if len(roots) != 2 {
		t.Fatalf("%d roots, want 2", len(roots))
	}
	d := roots[0]
	if d.Name != "2011-12-01" || len(d.Children) != 2 {
		t.Fatalf("day span = %q with %d children, want 2", d.Name, len(d.Children))
	}
	if d.Children[0].Name != "prepare" || d.Children[1].Name != "resolve" {
		t.Fatalf("children = %q, %q", d.Children[0].Name, d.Children[1].Name)
	}
	if d.Children[1].Items != 1000 {
		t.Fatalf("resolve items = %d, want 1000", d.Children[1].Items)
	}
	if d.Running || d.Children[0].Running {
		t.Fatal("ended spans must not report running")
	}
	if roots[1].Name != "mine" || roots[1].Items != 7 {
		t.Fatalf("second root = %+v", roots[1])
	}
	if d.DurationSeconds < 0 || d.DurationSeconds < d.Children[1].DurationSeconds {
		t.Fatalf("day duration %v should cover child %v", d.DurationSeconds, d.Children[1].DurationSeconds)
	}
}

func TestSpanStartRootConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.StartRoot("exp")
			// Each root's own tracer nests its stages under it, as a fleet
			// PoP's runner does under its pop-N span.
			sub := sp.Tracer()
			day := sub.Start("day")
			sub.Start("resolve").End()
			day.End()
			sp.AddItems(1)
			sp.End()
		}()
	}
	wg.Wait()
	roots := tr.Roots()
	if len(roots) != 8 {
		t.Fatalf("%d roots, want 8", len(roots))
	}
	for _, r := range roots {
		if len(r.Children) != 1 || r.Children[0].Name != "day" || len(r.Children[0].Children) != 1 {
			t.Fatalf("root %q does not hold its own day/resolve tree: %+v", r.Name, r.Children)
		}
	}
	var none *Span
	if none.Tracer() != nil {
		t.Fatal("a nil span's tracer is not nil")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_events_total", "Events processed.").Add(12)
	r.Counter(`app_shard_total{server="0"}`, "Per-shard events.").Add(3)
	r.Counter(`app_shard_total{server="1"}`, "Per-shard events.").Add(4)
	r.Gauge("app_depth", "").Set(1.5)
	r.Histogram("app_lat_ns", "").Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE app_events_total counter",
		"app_events_total 12",
		`app_shard_total{server="0"} 3`,
		`app_shard_total{server="1"} 4`,
		"# TYPE app_depth gauge",
		"app_depth 1.5",
		"# TYPE app_lat_ns histogram",
		`app_lat_ns_bucket{le="8"} 1`,
		`app_lat_ns_bucket{le="+Inf"} 1`,
		"app_lat_ns_sum 5",
		"app_lat_ns_count 1",
		"# TYPE go_goroutines gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE app_shard_total") != 1 {
		t.Fatal("labeled series must share one TYPE header")
	}
}
