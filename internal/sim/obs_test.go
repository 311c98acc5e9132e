package sim

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestObsSurfaces starts the session under each flag combination and checks
// which handles it hands out and which debug routes its endpoint answers.
func TestObsSurfaces(t *testing.T) {
	dir := t.TempDir()
	routes := []string{"/metrics", "/debug/qlog", "/debug/tsdb", "/debug/alerts"}
	for _, tc := range []struct {
		name      string
		obs       *Obs
		err       string
		telemetry bool // Registry and Tracer set
		log       bool
		status    []int // per route; nil without an endpoint
	}{
		{name: "none", obs: &Obs{}},
		{name: "report", obs: &Obs{ReportPath: filepath.Join(dir, "r.json")}, telemetry: true},
		{name: "qlog file", obs: &Obs{QlogPath: filepath.Join(dir, "q.jsonl")}, log: true},
		{name: "metrics-addr", obs: &Obs{MetricsAddr: "127.0.0.1:0"}, telemetry: true, log: true,
			status: []int{200, 200, 404, 404}},
		{name: "metrics-addr tsdb", obs: &Obs{MetricsAddr: "127.0.0.1:0", TSDBInterval: time.Hour},
			telemetry: true, log: true, status: []int{200, 200, 200, 200}},
		// -progress sweeps a private tsdb: no routes, no rules.
		{name: "metrics-addr progress", obs: &Obs{MetricsAddr: "127.0.0.1:0", Progress: time.Hour},
			telemetry: true, log: true, status: []int{200, 200, 404, 404}},
		{name: "tsdb without telemetry", obs: &Obs{TSDBInterval: time.Second},
			err: "-tsdb-interval needs telemetry enabled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.obs
			err := o.Start("test", nil)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Start = %v, want an error mentioning %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer o.Close()
			if (o.Registry != nil) != tc.telemetry || (o.Tracer != nil) != tc.telemetry {
				t.Errorf("Registry %v, Tracer %v; want both set: %v", o.Registry != nil, o.Tracer != nil, tc.telemetry)
			}
			if (o.Logger != nil) != (o.Progress > 0) {
				t.Errorf("Logger set: %v, with -progress %v", o.Logger != nil, o.Progress)
			}
			if got := o.Log() != nil; got != tc.log {
				t.Errorf("query log on: %v, want %v", got, tc.log)
			}
			if (o.ln != nil) != (tc.status != nil) {
				t.Fatalf("endpoint bound: %v, want %v", o.ln != nil, tc.status != nil)
			}
			for i, route := range routes[:len(tc.status)] {
				resp, err := http.Get("http://" + o.ln.Addr().String() + route)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.status[i] {
					t.Errorf("%s answered %d, want %d", route, resp.StatusCode, tc.status[i])
				}
			}
			if o.Progress > 0 {
				// A hit ratio under alerts.DefaultRules' floor, over two
				// sweeps: no rule runs on the private tsdb, so no
				// transition reaches the query log.
				misses := o.Registry.Counter("resolver_cache_misses_total", "")
				o.Registry.Counter("resolver_cache_hits_total", "")
				for range 2 {
					misses.Add(10)
					o.sweeper.Sweep()
				}
				resp, err := http.Get("http://" + o.ln.Addr().String() + "/debug/qlog")
				if err != nil {
					t.Fatal(err)
				}
				var tail struct{ Total uint64 }
				err = json.NewDecoder(resp.Body).Decode(&tail)
				resp.Body.Close()
				if err != nil || tail.Total != 0 {
					t.Errorf("/debug/qlog holds %d events (%v), want no alert transition", tail.Total, err)
				}
			}
			if err := o.Close(); err != nil {
				t.Fatal(err)
			}
			if err := o.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}

	// A Start that fails after binding the endpoint (the -qlog file cannot
	// be created) closes it again, so the port is free for the next attempt.
	t.Run("unwritable qlog", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		o := Obs{MetricsAddr: addr, QlogPath: filepath.Join(dir, "missing", "q.jsonl")}
		if err := o.Start("test", nil); err == nil || !strings.HasPrefix(err.Error(), "qlog: ") {
			t.Fatalf("Start = %v, want a qlog: error", err)
		}
		if ln, err = net.Listen("tcp", addr); err != nil {
			t.Fatalf("port still bound after the failed Start: %v", err)
		}
		ln.Close()
	})
}

// TestProgressReadsTheSweep: the -progress line prints what the tsdb
// recorded at the same sweep, as /debug/tsdb serves it. A run shorter than
// -progress logs one line, from the final sweep at Close, and its hit
// ratio covers that sweep alone, not the run.
func TestProgressReadsTheSweep(t *testing.T) {
	o := &Obs{Progress: time.Hour}
	if err := o.Start("test", nil); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var out bytes.Buffer
	o.Logger = slog.New(slog.NewJSONHandler(&out, nil)) // no tick sweeps in an hour
	reg := o.Registry
	var queries, hits, misses [2]func(uint64)
	for i, server := range []string{`{server="0"}`, `{server="1"}`} {
		queries[i] = reg.Counter("resolver_queries_total"+server, "").Add
		hits[i] = reg.Counter("resolver_cache_hits_total"+server, "").Add
		misses[i] = reg.Counter("resolver_cache_misses_total"+server, "").Add
	}
	rx := reg.Counter("udp_rx_packets_total", "")
	move := func(h, m uint64) { // both servers alike
		for i := range 2 {
			queries[i](h + m)
			hits[i](h)
			misses[i](m)
		}
		rx.Add(2 * (h + m))
	}

	move(3, 1)
	o.sweeper.Sweep()
	if out.Len() != 0 {
		t.Fatalf("a sweep inside the first -progress period logged %s", out.String())
	}
	between := time.Now()
	move(1, 3)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	end := time.Now()

	var line map[string]any
	if n := strings.Count(out.String(), "\n"); n != 1 {
		t.Fatalf("%d progress lines, want the final sweep's one:\n%s", n, out.String())
	}
	if err := json.Unmarshal(out.Bytes(), &line); err != nil || line["msg"] != "progress" {
		t.Fatalf("line %s: %v", out.String(), err)
	}
	if got := line["cache_hit_ratio"]; got != 0.25 {
		t.Errorf("cache_hit_ratio = %v, want the last sweep's 0.25 (the run's is 0.5)", got)
	}
	for name, want := range map[string]float64{"resolver_queries_total": 16, "udp_rx_packets_total": 16} {
		if got := line[name]; got != want {
			t.Errorf("%s = %v, want %v summed over its series", name, got, want)
		}
	}
	for _, name := range []string{"uptime_s", "go_heap_alloc_bytes", "go_goroutines"} {
		if v, _ := line[name].(float64); v <= 0 {
			t.Errorf("%s = %v, want > 0", name, line[name])
		}
	}

	// The same sweep through /debug/tsdb: one bucket from just after the
	// first sweep to now holds the final sweep's sample alone.
	for _, name := range []string{"cache_hit_ratio", "resolver_qps", "serve_qps"} {
		rec := httptest.NewRecorder()
		o.db.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tsdb?series="+name+
			"&start="+between.Format(time.RFC3339Nano)+"&end="+end.Format(time.RFC3339Nano)+
			"&step="+end.Sub(between).String(), nil))
		var res struct {
			Series []struct{ Points []struct{ V float64 } }
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || len(res.Series) != 1 || len(res.Series[0].Points) != 1 {
			t.Fatalf("/debug/tsdb %s: %s (%v)", name, rec.Body.String(), err)
		}
		if got, want := line[name], res.Series[0].Points[0].V; got != want {
			t.Errorf("progress %s = %v, /debug/tsdb = %v", name, got, want)
		}
	}
}
