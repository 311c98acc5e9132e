package tsdb

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/telemetry"
)

var t0 = time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)

// snapAt builds a bare snapshot with the given cumulative counters.
func snapAt(t time.Time, counters map[string]uint64, gauges map[string]float64) *telemetry.Snapshot {
	return &telemetry.Snapshot{Time: t, Counters: counters, Gauges: gauges}
}

func TestRecordAndRateQuery(t *testing.T) {
	db := New()
	for i := 0; i <= 5; i++ {
		db.Record(snapAt(t0.Add(time.Duration(i)*time.Second), map[string]uint64{
			"udp_rx_packets_total": uint64(100 * i),
		}, map[string]float64{"go_goroutines": float64(10 + i)}))
	}

	// Rate over 1s buckets: every bucket after the first should see 100/s.
	res := db.Query("udp_rx_packets_total", AggRate, Options{
		Start: t0, End: t0.Add(5 * time.Second), Step: time.Second,
	})
	if len(res) != 1 {
		t.Fatalf("got %d series, want 1: %+v", len(res), res)
	}
	if res[0].Kind != "counter" {
		t.Errorf("kind = %q, want counter", res[0].Kind)
	}
	if len(res[0].Points) != 5 {
		t.Fatalf("got %d points, want 5: %+v", len(res[0].Points), res[0].Points)
	}
	for _, p := range res[0].Points {
		if p.V != 100 {
			t.Errorf("rate point %+v, want 100/s", p)
		}
	}

	// The derived serve_qps gauge should carry the same rate.
	res = db.Query("serve_qps", AggAvg, Options{Start: t0, End: t0.Add(5 * time.Second), Step: 5 * time.Second})
	if len(res) != 1 || len(res[0].Points) != 1 {
		t.Fatalf("serve_qps = %+v, want one series with one point", res)
	}
	if got := res[0].Points[0].V; got != 100 {
		t.Errorf("serve_qps avg = %v, want 100", got)
	}

	// Gauge avg over the full window.
	res = db.Query("go_goroutines", AggAvg, Options{Start: t0.Add(-time.Second), End: t0.Add(5 * time.Second), Step: 6 * time.Second})
	if len(res) != 1 || len(res[0].Points) != 1 {
		t.Fatalf("go_goroutines = %+v", res)
	}
	if got := res[0].Points[0].V; got != 12.5 {
		t.Errorf("gauge avg = %v, want 12.5", got)
	}
}

func TestDerivedRatiosAndPopGrouping(t *testing.T) {
	db := New()
	mk := func(i uint64) map[string]uint64 {
		return map[string]uint64{
			`resolver_cache_hits_total{pop="0"}`:             90 * i,
			`resolver_cache_misses_total{pop="0"}`:           10 * i,
			`resolver_cache_hits_total{pop="1"}`:             50 * i,
			`resolver_cache_misses_total{pop="1"}`:           50 * i,
			`udp_scored_total{verdict="benign",pop="0"}`:     70 * i,
			`udp_scored_total{verdict="disposable",pop="0"}`: 30 * i,
		}
	}
	for i := uint64(1); i <= 3; i++ {
		db.Record(snapAt(t0.Add(time.Duration(i)*time.Second), mk(i), nil))
	}
	opt := Options{Start: t0, End: t0.Add(4 * time.Second), Step: 4 * time.Second}

	res := db.Query("cache_hit_ratio", AggAvg, opt)
	if len(res) != 2 {
		t.Fatalf("cache_hit_ratio series = %+v, want 2 (per pop)", res)
	}
	if res[0].Name != `cache_hit_ratio{pop="0"}` || res[1].Name != `cache_hit_ratio{pop="1"}` {
		t.Fatalf("series names = %q, %q", res[0].Name, res[1].Name)
	}
	if v := res[0].Points[0].V; v != 0.9 {
		t.Errorf("pop0 CHR = %v, want 0.9", v)
	}
	if v := res[1].Points[0].V; v != 0.5 {
		t.Errorf("pop1 CHR = %v, want 0.5", v)
	}

	res = db.Query("verdict_rate", AggAvg, opt)
	if len(res) != 1 || res[0].Name != `verdict_rate{pop="0"}` {
		t.Fatalf("verdict_rate = %+v", res)
	}
	if v := res[0].Points[0].V; v != 0.3 {
		t.Errorf("verdict_rate = %v, want 0.3", v)
	}
}

// TestDerivedNoDataVsZero: a ratio rule (serve_drop_rate) emits nothing
// while the denominator is idle, and a genuine zero when the denominator
// moves without the numerator.
func TestDerivedNoDataVsZero(t *testing.T) {
	db := New()
	db.Record(snapAt(t0, map[string]uint64{"udp_dropped_total": 0, "udp_rx_packets_total": 0}, nil))
	db.Record(snapAt(t0.Add(time.Second), map[string]uint64{"udp_dropped_total": 0, "udp_rx_packets_total": 0}, nil))
	db.Record(snapAt(t0.Add(2*time.Second), map[string]uint64{"udp_dropped_total": 0, "udp_rx_packets_total": 100}, nil))
	res := db.Query("serve_drop_rate", AggAvg, Options{Start: t0, End: t0.Add(3 * time.Second), Step: time.Second})
	if len(res) != 1 || len(res[0].Points) != 1 {
		t.Fatalf("serve_drop_rate = %+v, want exactly one point (idle sweeps emit no data)", res)
	}
	if res[0].Points[0].V != 0 {
		t.Errorf("serve_drop_rate = %v, want 0", res[0].Points[0].V)
	}
}

func TestHistogramDerivedSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("resolver_latency_ns", "test")
	db := New()

	h.Observe(1000)
	h.Observe(1000)
	snap := reg.Snapshot()
	snap.Time = t0
	db.Record(snap)

	// Second sweep with no new observations: windowed p99 must drop to 0 so
	// latency alerts can resolve.
	snap = reg.Snapshot()
	snap.Time = t0.Add(time.Second)
	db.Record(snap)

	opt := Options{Start: t0.Add(-time.Second), End: t0.Add(2 * time.Second), Step: time.Second}
	res := db.Query("resolver_latency_ns_p99", AggMax, opt)
	if len(res) != 1 {
		t.Fatalf("p99 series = %+v", res)
	}
	pts := res[0].Points
	if len(pts) != 2 {
		t.Fatalf("p99 points = %+v, want 2", pts)
	}
	if pts[0].V <= 0 {
		t.Errorf("first-window p99 = %v, want > 0", pts[0].V)
	}
	if pts[1].V != 0 {
		t.Errorf("idle-window p99 = %v, want 0", pts[1].V)
	}

	res = db.Query("resolver_latency_ns_count", AggMax, opt)
	if len(res) != 1 || res[0].Kind != "counter" {
		t.Fatalf("_count series = %+v, want one counter", res)
	}
	if last := res[0].Points[len(res[0].Points)-1].V; last != 2 {
		t.Errorf("_count = %v, want 2", last)
	}
}

func TestRingWrap(t *testing.T) {
	db := New()
	const sweeps = DefaultRetain + 6
	for i := 0; i < sweeps; i++ {
		db.Record(snapAt(t0.Add(time.Duration(i)*time.Second), map[string]uint64{"c": uint64(i)}, nil))
	}
	res := db.Query("c", AggMax, Options{Start: t0.Add(-time.Minute), End: t0.Add(sweeps*time.Second + time.Minute), Step: time.Second})
	if len(res) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if len(res[0].Points) != DefaultRetain {
		t.Fatalf("points after wrap = %d, want %d (retain)", len(res[0].Points), DefaultRetain)
	}
	for i, p := range res[0].Points {
		if want := float64(6 + i); p.V != want {
			t.Errorf("point %d = %v, want %v", i, p.V, want)
		}
	}
	if info := db.Series(); len(info) != 1 || info[0].Samples != DefaultRetain {
		t.Errorf("Series() = %+v, want one entry with %d samples", info, DefaultRetain)
	}
}

func TestMatchSeries(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"", "anything", true},
		{"serve_qps", "serve_qps", true},
		{"serve_qps", `serve_qps{pop="3"}`, true},
		{"serve_qps", "serve_qps_total", false},
		{`serve_qps{pop="3"}`, `serve_qps{pop="3"}`, true},
		{`serve_qps{pop="3"}`, `serve_qps{pop="4"}`, false},
		{`serve_qps{pop="3"}`, "serve_qps", false},
		{"resolver_*", "resolver_queries_total", true},
		{"resolver_*", `resolver_cache_hits_total{server="0"}`, true},
		{"resolver_*", "udp_rx_packets_total", false},
		{"*_p99", `udp_handle_latency_ns_p99{verdict="benign"}`, true},
		{"*_p99", "udp_handle_latency_ns_p50", false},
	}
	for _, c := range cases {
		if got := MatchSeries(c.pattern, c.name); got != c.want {
			t.Errorf("MatchSeries(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}

func TestMonotonicTimestamps(t *testing.T) {
	db := New()
	db.Record(snapAt(t0, map[string]uint64{"c": 1}, nil))
	db.Record(snapAt(t0, map[string]uint64{"c": 2}, nil)) // same wall time
	// Start exactly at t0: the first sample (at t0) is the rate base, the
	// clamped second sample (t0+1ns) falls in the bucket.
	res := db.Query("c", AggRate, Options{Start: t0, End: t0.Add(time.Second), Step: 2 * time.Second})
	if len(res) != 1 || len(res[0].Points) != 1 {
		t.Fatalf("res = %+v", res)
	}
	// The clamped 1ns spacing yields a huge but finite, non-negative rate.
	if v := res[0].Points[0].V; v < 0 {
		t.Errorf("rate = %v, want >= 0", v)
	}
}

func TestHandler(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("udp_rx_packets_total", "test")
	db := New()
	sw := NewSweeper(db, time.Hour, reg.Snapshot)
	// Spread sweeps across several 10ms query buckets so the rate agg has a
	// base sample before at least one bucket.
	for i := 0; i < 3; i++ {
		c.Add(50)
		sw.Sweep()
		time.Sleep(15 * time.Millisecond)
	}

	// Index listing.
	rec := httptest.NewRecorder()
	db.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tsdb", nil))
	if rec.Code != 200 {
		t.Fatalf("index status = %d", rec.Code)
	}
	var idx struct {
		Retain int          `json:"retain"`
		Sweeps uint64       `json:"sweeps"`
		Series []SeriesInfo `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Retain != DefaultRetain || idx.Sweeps != 3 || len(idx.Series) == 0 {
		t.Fatalf("index = %+v", idx)
	}

	// Range query via query params.
	rec = httptest.NewRecorder()
	start := time.Now().Add(-2 * time.Second).Format(time.RFC3339Nano)
	db.Handler().ServeHTTP(rec, httptest.NewRequest("GET",
		"/debug/tsdb?series=udp_rx_packets_total&agg=rate&step=10ms&start="+start, nil))
	if rec.Code != 200 {
		t.Fatalf("query status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Agg    string   `json:"agg"`
		Series []Result `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Agg != "rate" || len(out.Series) != 1 || len(out.Series[0].Points) == 0 {
		t.Fatalf("query out = %+v", out)
	}

	// Bad agg is a 400.
	rec = httptest.NewRecorder()
	db.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tsdb?series=x&agg=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bad agg status = %d, want 400", rec.Code)
	}
}

// TestFleetMergeBitConsistency: recording a registry whose series come
// from per-pop views into a fleet DB yields, for every pop, exactly the
// points a single-PoP DB records from an unlabeled registry — same values,
// same timestamps.
func TestFleetMergeBitConsistency(t *testing.T) {
	fleet := telemetry.NewRegistry()
	regs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	views := []*telemetry.Registry{fleet.WithLabel("pop", "0"), fleet.WithLabel("pop", "1")}
	for i := range regs {
		for _, reg := range []*telemetry.Registry{regs[i], views[i]} {
			reg.Counter("resolver_cache_hits_total", "t").Add(uint64(80 + 7*i))
			reg.Counter("resolver_cache_misses_total", "t").Add(uint64(20 + 3*i))
			reg.Histogram("resolver_latency_ns", "t").Observe(uint64(1000 * (i + 1)))
		}
	}

	single := []*DB{New(), New()}
	fleetDB := New()
	for sweep := 0; sweep < 3; sweep++ {
		ts := t0.Add(time.Duration(sweep) * time.Second)
		for i := range regs {
			for _, reg := range []*telemetry.Registry{regs[i], views[i]} {
				reg.Counter("resolver_cache_hits_total", "t").Add(uint64(10 * (i + 1)))
			}
			snap := regs[i].Snapshot()
			snap.Time = ts
			single[i].Record(snap)
		}
		snap := fleet.Snapshot()
		snap.Time = ts
		fleetDB.Record(snap)
	}

	opt := Options{Start: t0.Add(-time.Second), End: t0.Add(3 * time.Second), Step: time.Second}
	for pop, db := range single {
		popLbl := `{pop="` + []string{"0", "1"}[pop] + `"}`
		for _, info := range db.Series() {
			base, labels := telemetry.SplitSeries(info.Name)
			if strings.HasPrefix(base, "go_") {
				continue // runtime metrics are process-wide, registered once
			}
			fleetName := base + "{"
			if labels != "" {
				fleetName += labels + ","
			}
			fleetName += popLbl[1:]
			want := db.Query(info.Name, AggAvg, opt)
			got := fleetDB.Query(fleetName, AggAvg, opt)
			if len(want) != 1 || len(got) != 1 {
				t.Fatalf("pop %d series %q: single=%d fleet(%q)=%d results",
					pop, info.Name, len(want), fleetName, len(got))
			}
			if !reflect.DeepEqual(want[0].Points, got[0].Points) {
				t.Errorf("pop %d series %q: single %+v != fleet %+v",
					pop, info.Name, want[0].Points, got[0].Points)
			}
		}
	}
}

// TestSweeperStartBaseline: Start records a sweep, so the first sweep
// after it already has rates, and Latest reads the latest sweep's samples
// only, summed over label sets, a PoP's apart.
func TestSweeperStartBaseline(t *testing.T) {
	reg := telemetry.NewRegistry()
	db := New()
	sw := NewSweeper(db, time.Hour, reg.Snapshot)
	sw.Start()
	reg.Counter(`udp_rx_packets_total{listener="0"}`, "").Add(5)
	reg.Counter(`udp_rx_packets_total{listener="1"}`, "").Add(2)
	reg.Counter(`udp_rx_packets_total{pop="1"}`, "").Add(100)
	reg.Counter("udp_dropped_total", "")
	sw.Stop()
	if db.Sweeps() != 2 {
		t.Fatalf("sweeps = %d, want the baseline and Stop's", db.Sweeps())
	}
	if v, ok := db.Latest("serve_qps"); !ok || v <= 0 {
		t.Errorf("serve_qps = %v, %v: want a rate from the sweep after the baseline", v, ok)
	}
	if v, ok := db.Latest("udp_rx_packets_total"); !ok || v != 7 {
		t.Errorf("udp_rx_packets_total = %v, %v, want 7 (the PoP's 100 apart)", v, ok)
	}
	if _, ok := db.Latest("udp_rx_packets"); ok {
		t.Error("Latest matched a series by a prefix of its name")
	}
	if _, ok := db.Latest("serve_drop_rate"); !ok {
		t.Fatal("no serve_drop_rate over a window that received packets")
	}
	sw.Sweep() // an idle one: no ratio
	if v, ok := db.Latest("serve_drop_rate"); ok {
		t.Errorf("serve_drop_rate = %v after an idle sweep, want none: the older sample is not this sweep's", v)
	}
}
