package sim

import (
	"net"
	"net/http"
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
		obs       Obs
		err       string
		telemetry bool // Registry and Tracer set
		log       bool
		status    []int // per route; nil without an endpoint
	}{
		{name: "none"},
		{name: "report", obs: Obs{ReportPath: filepath.Join(dir, "r.json")}, telemetry: true},
		{name: "qlog file", obs: Obs{QlogPath: filepath.Join(dir, "q.jsonl")}, log: true},
		{name: "metrics-addr", obs: Obs{MetricsAddr: "127.0.0.1:0"}, telemetry: true, log: true,
			status: []int{200, 200, 404, 404}},
		{name: "metrics-addr tsdb", obs: Obs{MetricsAddr: "127.0.0.1:0", TSDBInterval: time.Hour},
			telemetry: true, log: true, status: []int{200, 200, 200, 200}},
		{name: "tsdb without telemetry", obs: Obs{TSDBInterval: time.Second},
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
			if o.Logger != nil {
				t.Error("Logger set without -progress")
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
