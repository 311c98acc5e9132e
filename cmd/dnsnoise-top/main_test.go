package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/alerts"
	"dnsnoise/internal/telemetry/tsdb"
)

// testBackend mounts real tsdb/alerts handlers (the same ones the CLIs
// serve) on an httptest server, with a little recent history recorded.
func testBackend(t *testing.T) (addr string, done func()) {
	t.Helper()
	db := tsdb.New()
	now := time.Now()
	for i := 0; i < 5; i++ {
		db.Record(&telemetry.Snapshot{
			Time: now.Add(time.Duration(i-5) * time.Second),
			Gauges: map[string]float64{
				`serve_qps{pop="0"}`:       1000 + 100*float64(i),
				`serve_qps{pop="1"}`:       500,
				`cache_hit_ratio{pop="0"}`: 0.9,
				`cache_hit_ratio{pop="1"}`: 0.4,
			},
		})
	}
	rule := alerts.Rule{Name: "chr_floor", Series: "cache_hit_ratio", Op: "<", Threshold: 0.5, Window: alerts.Duration(time.Minute)}
	eng := alerts.NewEngine(db, []alerts.Rule{rule}, nil)
	eng.Eval(now)

	mux := http.NewServeMux()
	mux.Handle("/debug/tsdb", db.Handler())
	mux.Handle("/debug/alerts", eng.Handler())
	ts := httptest.NewServer(mux)
	return strings.TrimPrefix(ts.URL, "http://"), ts.Close
}

func TestDetectAndRenderSingle(t *testing.T) {
	addr, done := testBackend(t)
	defer done()
	cl, err := detect(addr)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := cl.fetch(2*time.Minute, 32)
	if err != nil {
		t.Fatal(err)
	}
	out := render(fr, 32)
	for _, want := range []string{"qps", "pop 0", "pop 1", "500.0/s", "90.0%", "firing", "chr_floor"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// The sparkline alphabet must actually appear for a live series.
	if !strings.ContainsRune(out, '█') {
		t.Fatalf("no full-scale sparkline bar:\n%s", out)
	}
	// The firing instance is the low-CHR pop only.
	if fr.alerts.Firing != 1 {
		t.Fatalf("firing = %d, want 1", fr.alerts.Firing)
	}
}

func TestDetectRefusesBareServer(t *testing.T) {
	ts := httptest.NewServer(http.NewServeMux()) // no telemetry routes at all
	defer ts.Close()
	if _, err := detect(strings.TrimPrefix(ts.URL, "http://")); err == nil {
		t.Fatal("detect succeeded against a server with no tsdb routes")
	}
}

func TestRunFramesAgainstBackend(t *testing.T) {
	addr, done := testBackend(t)
	defer done()
	var out strings.Builder
	if err := run([]string{"-addr", addr, "-frames", "2", "-every", "10ms"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); strings.Count(got, "dnsnoise-top") != 2 || strings.Contains(got, "\x1b[2J") {
		t.Fatalf("-frames 2 output wrong (want 2 frames, no clear escapes):\n%s", got)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{0, 1, 2, 4}, 4); got != "▁▃▅█" {
		t.Fatalf("sparkline = %q", got)
	}
	// Zero series stays at the baseline; short series right-aligns.
	if got := sparkline([]float64{0, 0}, 4); got != "  ▁▁" {
		t.Fatalf("zero sparkline = %q", got)
	}
	// Longer than width keeps the tail, scaled to the kept window's own
	// max (the dropped 9s don't squash the remaining bars).
	if got := sparkline([]float64{9, 9, 1, 1}, 2); got != "██" {
		t.Fatalf("tail sparkline = %q", got)
	}
}

func TestFoldMax(t *testing.T) {
	got := foldMax([]float64{1, 5, 2}, []float64{4, 1})
	if len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 2 {
		t.Fatalf("foldMax = %v", got)
	}
}
