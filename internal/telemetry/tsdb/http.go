package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"dnsnoise/internal/telemetry"
)

// Handler serves the range-query API, mounted at /debug/tsdb.
//
//	GET /debug/tsdb                       -> series index
//	GET /debug/tsdb?series=PAT&agg=rate   -> aggregated points
//	    &start=..&end=..&step=..          (RFC3339 or unix seconds; step is
//	                                       a Go duration or seconds)
func (db *DB) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if db == nil {
			http.Error(w, "tsdb disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		q := r.URL.Query()
		pattern := q.Get("series")
		if pattern == "" {
			json.NewEncoder(w).Encode(struct {
				Retain int          `json:"retain"`
				Sweeps uint64       `json:"sweeps"`
				Series []SeriesInfo `json:"series"`
			}{db.Retain(), db.Sweeps(), db.Series()})
			return
		}
		agg, err := ParseAgg(q.Get("agg"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var opt Options
		if opt.Start, err = telemetry.ParseTime(q.Get("start")); err != nil {
			http.Error(w, "bad start: "+err.Error(), http.StatusBadRequest)
			return
		}
		if opt.End, err = telemetry.ParseTime(q.Get("end")); err != nil {
			http.Error(w, "bad end: "+err.Error(), http.StatusBadRequest)
			return
		}
		if opt.Step, err = parseQueryDuration(q.Get("step")); err != nil {
			http.Error(w, "bad step: "+err.Error(), http.StatusBadRequest)
			return
		}
		results := db.Query(pattern, agg, opt)
		if results == nil {
			results = []Result{}
		}
		json.NewEncoder(w).Encode(struct {
			Agg    string   `json:"agg"`
			Series []Result `json:"series"`
		}{agg.String(), results})
	})
}

// parseQueryDuration accepts Go durations ("15s") or plain seconds ("15").
// Empty means unset.
func parseQueryDuration(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d, nil
	}
	sec, err := strconv.ParseFloat(s, 64)
	if err != nil || sec < 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
		return 0, fmt.Errorf("want duration or seconds, got %q", s)
	}
	return time.Duration(sec * float64(time.Second)), nil
}
