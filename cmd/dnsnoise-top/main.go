// Command dnsnoise-top is a terminal dashboard over the continuous
// telemetry endpoints: it polls the /debug/tsdb and /debug/alerts pair of
// a running dnsnoise-serve, dnsnoise-fleet or any command started with
// -tsdb-interval and renders rate/ratio/latency sparklines, one row per
// pop= label (a fleet's PoPs) or one "all" row, plus the active alerts.
//
// Usage:
//
//	dnsnoise-serve -metrics-addr :8089 -tsdb-interval 1s &
//	dnsnoise-top -addr 127.0.0.1:8089
//
//	dnsnoise-fleet -metrics-addr :8090 -tsdb-interval 1s -linger 10m &
//	dnsnoise-top -addr 127.0.0.1:8090
//
// -frames N renders N frames and exits (CI smoke tests use -frames 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/alerts"
	"dnsnoise/internal/telemetry/tsdb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-top:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dnsnoise-top", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:8089", "telemetry endpoint (the target's -metrics-addr)")
		every  = fs.Duration("every", time.Second, "refresh interval")
		window = fs.Duration("window", 2*time.Minute, "trailing history window per sparkline")
		frames = fs.Int("frames", 0, "render this many frames then exit (0 = run until interrupted)")
		width  = fs.Int("width", 48, "sparkline width in characters")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *width < 8 {
		*width = 8
	}
	cl, err := detect(*addr)
	if err != nil {
		return err
	}
	for n := 0; *frames == 0 || n < *frames; n++ {
		if n > 0 {
			time.Sleep(*every)
		}
		frame, err := cl.fetch(*window, *width)
		if err != nil {
			return err
		}
		if *frames == 0 {
			fmt.Fprint(stdout, "\x1b[2J\x1b[H") // clear, home
		}
		fmt.Fprint(stdout, render(frame, *width))
	}
	return nil
}

// client polls one telemetry endpoint.
type client struct {
	base string // http://host:port
	hc   *http.Client
}

// detect probes addr's /debug/tsdb, which only answers on a target
// started with -tsdb-interval.
func detect(addr string) (*client, error) {
	cl := &client{base: "http://" + addr, hc: &http.Client{Timeout: 5 * time.Second}}
	resp, err := cl.hc.Get(cl.base + "/debug/tsdb")
	if err != nil {
		return nil, fmt.Errorf("probe %s: %w", cl.base, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s does not serve /debug/tsdb (start the target with -tsdb-interval)", addr)
	}
	return cl, nil
}

// query runs one range query and returns the matched series.
func (c *client) query(series, agg string, window time.Duration, steps int) ([]tsdb.Result, error) {
	q := url.Values{}
	q.Set("series", series)
	q.Set("agg", agg)
	q.Set("start", fmt.Sprintf("%.3f", float64(time.Now().Add(-window).UnixMilli())/1e3))
	q.Set("step", (window / time.Duration(steps)).String())
	resp, err := c.hc.Get(c.base + "/debug/tsdb?" + q.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/tsdb: %s", resp.Status)
	}
	var out struct {
		Series []tsdb.Result `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Series, nil
}

func (c *client) alerts() (*alerts.Status, error) {
	resp, err := c.hc.Get(c.base + "/debug/alerts")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/alerts: %s", resp.Status)
	}
	var st alerts.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// panelSpec is one dashboard row family: a derived series (with a
// fallback for targets that don't emit the primary) and how to print it.
type panelSpec struct {
	title  string
	series string // primary series base name
	alt    string // fallback when the primary has no data
	agg    string
	format func(float64) string
}

func fmtRate(v float64) string  { return fmt.Sprintf("%8.1f/s", v) }
func fmtRatio(v float64) string { return fmt.Sprintf("%8.1f%%", 100*v) }
func fmtMs(v float64) string    { return fmt.Sprintf("%8.2fms", v/1e6) }

// panels is the fixed dashboard layout. The serve-path names come first;
// ingest/experiment targets fall back to the resolver-side equivalents.
var panels = []panelSpec{
	{title: "qps", series: "serve_qps", alt: "resolver_qps", agg: "avg", format: fmtRate},
	{title: "cache hit", series: "cache_hit_ratio", agg: "avg", format: fmtRatio},
	{title: "p99 latency", series: "udp_handle_latency_ns_p99", alt: "resolver_latency_ns_p99", agg: "max", format: fmtMs},
	{title: "disposable", series: "verdict_rate", agg: "avg", format: fmtRatio},
	{title: "drop rate", series: "serve_drop_rate", agg: "avg", format: fmtRatio},
}

// panelData is one fetched panel: series label -> history, field order
// fixed by labels.
type panelData struct {
	spec   panelSpec
	labels []string
	hist   map[string][]float64
}

// frame is everything one render needs.
type frame struct {
	when   time.Time
	target string
	panels []panelData
	alerts *alerts.Status
}

// fetch pulls every panel's history plus the alert status.
func (c *client) fetch(window time.Duration, width int) (*frame, error) {
	fr := &frame{when: time.Now(), target: strings.TrimPrefix(c.base, "http://")}
	for _, spec := range panels {
		res, err := c.query(spec.series, spec.agg, window, width)
		if err != nil {
			return nil, err
		}
		if !hasData(res) && spec.alt != "" {
			if alt, err := c.query(spec.alt, spec.agg, window, width); err == nil && hasData(alt) {
				res = alt
			}
		}
		fr.panels = append(fr.panels, buildPanel(spec, res))
	}
	st, err := c.alerts()
	if err != nil {
		return nil, err
	}
	fr.alerts = st
	return fr, nil
}

func hasData(res []tsdb.Result) bool {
	for _, r := range res {
		if len(r.Points) > 0 {
			return true
		}
	}
	return false
}

// buildPanel folds query results into per-label histories. A fleet's
// series keep their pop= label as the row key; unlabeled series collapse to one
// "all" row. Multiple series mapping to one row (e.g. per-server
// latency percentiles) fold together: rates/ratios could sum wrongly, so
// derived series are already pop-grouped upstream and raw gauges take
// the max per slot — the conservative view for a health display.
func buildPanel(spec panelSpec, res []tsdb.Result) panelData {
	pd := panelData{spec: spec, hist: map[string][]float64{}}
	for _, r := range res {
		if len(r.Points) == 0 {
			continue
		}
		label := "all"
		_, labels := telemetry.SplitSeries(r.Name)
		if pop := telemetry.LabelValue(labels, "pop"); pop != "" {
			label = "pop " + pop
		}
		vals := make([]float64, len(r.Points))
		for i, p := range r.Points {
			vals[i] = p.V
		}
		if prev, ok := pd.hist[label]; ok {
			pd.hist[label] = foldMax(prev, vals)
		} else {
			pd.hist[label] = vals
			pd.labels = append(pd.labels, label)
		}
	}
	sort.Strings(pd.labels)
	return pd
}

// foldMax merges two histories slot-wise (longer tail wins on length).
func foldMax(a, b []float64) []float64 {
	if len(b) > len(a) {
		a, b = b, a
	}
	off := len(a) - len(b)
	out := append([]float64(nil), a...)
	for i, v := range b {
		if v > out[off+i] {
			out[off+i] = v
		}
	}
	return out
}

// sparkBlocks is the eight-level bar alphabet.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals into a fixed-width bar strip, scaled to the
// series' own max (an all-zero series renders as a flat baseline).
func sparkline(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for i := 0; i < width-len(vals); i++ {
		b.WriteByte(' ')
	}
	for _, v := range vals {
		idx := 0
		if max > 0 && v > 0 {
			idx = int(math.Ceil(v / max * 7))
			if idx > 7 {
				idx = 7
			}
		}
		b.WriteRune(sparkBlocks[idx])
	}
	return b.String()
}

// render draws one frame as plain text. Pure: all I/O happened in fetch.
func render(fr *frame, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dnsnoise-top  %s  %s\n\n", fr.target, fr.when.Format("15:04:05"))
	for _, pd := range fr.panels {
		if len(pd.labels) == 0 {
			fmt.Fprintf(&b, "%-12s %8s  %s\n", pd.spec.title, "-", strings.Repeat(" ", width))
			continue
		}
		for i, label := range pd.labels {
			title := ""
			if i == 0 {
				title = pd.spec.title
			}
			vals := pd.hist[label]
			last := vals[len(vals)-1]
			fmt.Fprintf(&b, "%-12s %s  %s  %s\n", title, pd.spec.format(last), sparkline(vals, width), label)
		}
	}
	b.WriteString("\n")
	if fr.alerts == nil {
		return b.String()
	}
	fmt.Fprintf(&b, "alerts: %d firing, %d pending (%d rules, %d evals)\n",
		fr.alerts.Firing, fr.alerts.Pending, len(fr.alerts.Rules), fr.alerts.Evals)
	for _, rs := range fr.alerts.Rules {
		for _, inst := range rs.Instances {
			if inst.State == "inactive" {
				continue
			}
			fmt.Fprintf(&b, "  %-7s %s on %s = %g (since %s)\n",
				inst.State, rs.Name, inst.Series, inst.Value, inst.Since.Format("15:04:05"))
		}
	}
	n := len(fr.alerts.Transitions)
	for _, tr := range fr.alerts.Transitions[max(0, n-5):] {
		fmt.Fprintf(&b, "  %s %s %s -> %s (%g)\n",
			tr.Time.Format("15:04:05"), tr.Rule, tr.From, tr.To, tr.Value)
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
