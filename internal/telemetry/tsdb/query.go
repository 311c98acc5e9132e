package tsdb

import (
	"fmt"
	"strings"
	"time"

	"dnsnoise/internal/telemetry"
)

// Agg selects how samples inside a query bucket collapse to one point.
type Agg uint8

const (
	// AggAvg is the mean of the bucket's samples (the default).
	AggAvg Agg = iota
	// AggMax is the maximum of the bucket's samples.
	AggMax
	// AggRate is the per-second increase across the bucket: the bucket's
	// last sample minus the last sample at-or-before the bucket's start,
	// divided by the elapsed seconds between those two samples, clamped at
	// zero on counter resets. Buckets without both endpoints emit no point.
	AggRate
)

func (a Agg) String() string {
	switch a {
	case AggMax:
		return "max"
	case AggRate:
		return "rate"
	default:
		return "avg"
	}
}

// ParseAgg maps "avg" (or ""), "max", and "rate" to an Agg.
func ParseAgg(s string) (Agg, error) {
	switch s {
	case "", "avg":
		return AggAvg, nil
	case "max":
		return AggMax, nil
	case "rate":
		return AggRate, nil
	}
	return AggAvg, fmt.Errorf("tsdb: unknown agg %q (want rate|avg|max)", s)
}

// Options bounds a range query. Zero End means now, zero Start means
// End-DefaultQueryWindow, Step<=0 divides the range into DefaultQuerySteps
// buckets. Buckets are half-open on the left: a point at bucket end e
// aggregates samples with start < t <= e.
type Options struct {
	Start time.Time
	End   time.Time
	Step  time.Duration
}

// DefaultQueryWindow is the look-back when a query gives no start time.
const DefaultQueryWindow = 5 * time.Minute

// DefaultQuerySteps is the bucket count when a query gives no step.
const DefaultQuerySteps = 60

// maxQuerySteps caps bucket counts so a tiny step over a huge range cannot
// allocate unboundedly; the step is widened to fit.
const maxQuerySteps = 2000

// Point is one aggregated output sample. T is Unix milliseconds (the bucket
// end), matching what the dashboard and JSON consumers want.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Result is one matched series' aggregated points.
type Result struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// SeriesInfo describes one live series for index listings.
type SeriesInfo struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Samples int    `json:"samples"`
}

// Series lists every live series, sorted by name.
func (db *DB) Series() []SeriesInfo {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]SeriesInfo, 0, len(db.names))
	for _, name := range db.names {
		s := db.series[name]
		out = append(out, SeriesInfo{Name: name, Kind: s.kind.String(), Samples: s.len()})
	}
	return out
}

// Latest returns the latest sweep's samples of the series named base,
// summed across their label sets as the derived rules sum them, and false
// when that sweep recorded none. A pop label partitions: a fleet's per-PoP
// series are not summed into a process total.
func (db *DB) Latest(base string) (v float64, ok bool) {
	if db == nil {
		return 0, false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for name, s := range db.series {
		b, labels := telemetry.SplitSeries(name)
		last := s.buf[(s.next+len(s.buf)-1)%len(s.buf)]
		if b == base && telemetry.LabelValue(labels, "pop") == "" && last.t == db.lastT {
			v, ok = v+last.v, true
		}
	}
	return v, ok
}

// MatchSeries reports whether a query pattern selects a series name.
// Three forms, in order of specificity:
//   - pattern containing '*': glob over the full name (and over the base
//     name, so "resolver_*" matches labeled series too);
//   - pattern containing '{': exact full-name match;
//   - bare pattern: base-name match, ignoring labels — this is what makes
//     one alert rule portable between a single-PoP process ("serve_qps")
//     and a fleet (`serve_qps{pop="3"}` for every PoP).
//
// An empty pattern matches everything.
func MatchSeries(pattern, name string) bool {
	if pattern == "" {
		return true
	}
	if strings.ContainsRune(pattern, '*') {
		if globMatch(pattern, name) {
			return true
		}
		base, _ := telemetry.SplitSeries(name)
		return globMatch(pattern, base)
	}
	if strings.ContainsRune(pattern, '{') {
		return pattern == name
	}
	base, _ := telemetry.SplitSeries(name)
	return pattern == base
}

// globMatch is a minimal '*'-only glob (no character classes).
func globMatch(pattern, s string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for _, part := range parts[1 : len(parts)-1] {
		i := strings.Index(s, part)
		if i < 0 {
			return false
		}
		s = s[i+len(part):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}

// Query aggregates every series matching pattern over the option range.
// Results come back sorted by series name; series with no points in range
// are omitted.
func (db *DB) Query(pattern string, agg Agg, opt Options) []Result {
	if db == nil {
		return nil
	}
	end := opt.End
	if end.IsZero() {
		end = time.Now()
	}
	start := opt.Start
	if start.IsZero() {
		start = end.Add(-DefaultQueryWindow)
	}
	if !end.After(start) {
		return nil
	}
	step := opt.Step
	if step <= 0 {
		step = end.Sub(start) / DefaultQuerySteps
	}
	if step < time.Millisecond {
		step = time.Millisecond
	}
	if n := end.Sub(start) / step; n > maxQuerySteps {
		step = end.Sub(start) / maxQuerySteps
	}
	startNs, stepNs := start.UnixNano(), step.Nanoseconds()
	nb := int((end.UnixNano() - startNs + stepNs - 1) / stepNs)

	db.mu.Lock()
	defer db.mu.Unlock()
	var out []Result
	var scratch []sample
	for _, name := range db.names {
		if !MatchSeries(pattern, name) {
			continue
		}
		s := db.series[name]
		scratch = s.ordered(scratch[:0])
		points := aggregate(scratch, agg, startNs, stepNs, nb)
		if len(points) == 0 {
			continue
		}
		out = append(out, Result{Name: name, Kind: s.kind.String(), Points: points})
	}
	return out
}

// aggregate collapses time-ordered samples into nb buckets of stepNs width
// starting at startNs. Bucket b covers (startNs+b*step, startNs+(b+1)*step]
// and its point is stamped at the bucket end. Empty buckets emit nothing.
func aggregate(samples []sample, agg Agg, startNs, stepNs int64, nb int) []Point {
	if agg == AggRate {
		return aggregateRate(samples, startNs, stepNs, nb)
	}
	var points []Point
	i := 0
	for b := 0; b < nb; b++ {
		lo := startNs + int64(b)*stepNs
		hi := lo + stepNs
		for i < len(samples) && samples[i].t <= lo {
			i++
		}
		first := i
		for i < len(samples) && samples[i].t <= hi {
			i++
		}
		in := samples[first:i]
		if len(in) == 0 {
			continue
		}
		var v float64
		if agg == AggMax {
			v = in[0].v
			for _, smp := range in[1:] {
				if smp.v > v {
					v = smp.v
				}
			}
		} else { // AggAvg
			var sum float64
			for _, smp := range in {
				sum += smp.v
			}
			v = sum / float64(len(in))
		}
		points = append(points, Point{T: hi / int64(time.Millisecond), V: v})
	}
	return points
}

// aggregateRate handles AggRate separately: it needs the last sample
// at-or-before each bucket start as the delta base.
func aggregateRate(samples []sample, startNs, stepNs int64, nb int) []Point {
	var points []Point
	i := 0
	havePrev := false
	var prev sample
	for b := 0; b < nb; b++ {
		lo := startNs + int64(b)*stepNs
		hi := lo + stepNs
		for i < len(samples) && samples[i].t <= lo {
			prev = samples[i]
			havePrev = true
			i++
		}
		first := i
		for i < len(samples) && samples[i].t <= hi {
			i++
		}
		in := samples[first:i]
		if len(in) == 0 {
			continue
		}
		last := in[len(in)-1]
		if havePrev {
			if dt := float64(last.t-prev.t) / float64(time.Second); dt > 0 {
				d := last.v - prev.v
				if d < 0 {
					d = 0 // counter reset
				}
				points = append(points, Point{T: hi / int64(time.Millisecond), V: d / dt})
			}
		}
		// The bucket's last sample is at-or-before the next bucket's start:
		// it becomes that bucket's rate base.
		prev = last
		havePrev = true
	}
	return points
}
