package experiments

import (
	"fmt"
	"strings"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/stats"
	"dnsnoise/internal/workload"
)

// --- Figure 2: traffic profile above and below the RDNS cluster ----------

// Fig2Result carries the hourly series of both monitoring points.
type Fig2Result struct {
	Days        int
	BelowSeries map[string][]chrstat.HourPoint
	AboveSeries map[string][]chrstat.HourPoint
	// Aggregates for the paper's headline claims.
	BelowTotal, AboveTotal     uint64
	BelowNXShare, AboveNXShare float64
	PeakTroughRatio            float64 // diurnal swing on the "all" below series
}

// Fig2TrafficProfile simulates `days` consecutive December days and tallies
// hourly RR volumes for the All / NXDOMAIN / Akamai / Google series at both
// monitoring points (paper Figure 2, 12/01-12/06).
func Fig2TrafficProfile(scale sim.Scale, days int) (*Fig2Result, error) {
	env, err := sim.NewEnv(scale)
	if err != nil {
		return nil, err
	}
	mkCounter := func() *chrstat.HourlyCounter {
		h := chrstat.NewHourlyCounter()
		h.AddSeries("all", func(resolver.Observation) bool { return true })
		h.AddSeries("nxdomain", func(ob resolver.Observation) bool { return ob.RCode == dnsmsg.RCodeNXDomain })
		h.AddSeries("akamai", func(ob resolver.Observation) bool { return ob.RR.Name != "" && AkamaiNames(ob.RR.Name) })
		h.AddSeries("google", func(ob resolver.Observation) bool { return ob.RR.Name != "" && GoogleNames(ob.RR.Name) })
		return h
	}
	below, above := mkCounter(), mkCounter()

	profiles := make([]workload.Profile, days)
	for d := range profiles {
		profiles[d] = workload.DecemberProfile(dateAt(3 + d))
	}
	res := &Fig2Result{Days: days}
	// One rotating stream over the whole window: the runner swaps in a
	// fresh per-day collector at each UTC day boundary while the hourly
	// counters persist across windows as WithSinks sinks.
	runner := ingest.NewRunner(env.Cluster,
		ingest.WithSinks(ingest.TapSink(below.Tap(), above.Tap())),
		ingest.OnWindow(func(w ingest.Window) error {
			b, a, bnx, anx := w.Collector.Totals()
			res.BelowTotal += b
			res.AboveTotal += a
			res.BelowNXShare += float64(bnx)
			res.AboveNXShare += float64(anx)
			return nil
		}),
	)
	if err := runner.Run(ingest.NewGeneratorSource(env.Generator, profiles...)); err != nil {
		return nil, err
	}
	if res.BelowTotal > 0 {
		res.BelowNXShare /= float64(res.BelowTotal)
	}
	if res.AboveTotal > 0 {
		res.AboveNXShare /= float64(res.AboveTotal)
	}
	res.BelowSeries = make(map[string][]chrstat.HourPoint)
	res.AboveSeries = make(map[string][]chrstat.HourPoint)
	for _, name := range below.SeriesNames() {
		res.BelowSeries[name] = below.Series(name)
		res.AboveSeries[name] = above.Series(name)
	}
	res.PeakTroughRatio = peakTroughRatio(res.BelowSeries["all"])
	return res, nil
}

func peakTroughRatio(series []chrstat.HourPoint) float64 {
	if len(series) == 0 {
		return 0
	}
	min, max := series[0].Volume, series[0].Volume
	for _, p := range series[1:] {
		if p.Volume < min {
			min = p.Volume
		}
		if p.Volume > max {
			max = p.Volume
		}
	}
	if min == 0 {
		return 0
	}
	return float64(max) / float64(min)
}

// Render prints the aggregates and a coarse per-day volume table.
func (r *Fig2Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 2 — traffic above/below the RDNS cluster (%d days)\n", r.Days)
	fmt.Fprintf(&sb, "  below RRs: %d   above RRs: %d   below/above ratio: %.1fx\n",
		r.BelowTotal, r.AboveTotal, float64(r.BelowTotal)/float64(max64(r.AboveTotal, 1)))
	fmt.Fprintf(&sb, "  NXDOMAIN share: below %s, above %s (paper: ~6%% / ~40%%)\n",
		pct(r.BelowNXShare), pct(r.AboveNXShare))
	fmt.Fprintf(&sb, "  diurnal peak/trough ratio below: %.2fx\n", r.PeakTroughRatio)
	sb.WriteString(hourlySummaryTable("below", r.BelowSeries))
	sb.WriteString(hourlySummaryTable("above", r.AboveSeries))
	return sb.String()
}

func hourlySummaryTable(side string, series map[string][]chrstat.HourPoint) string {
	names := []string{"all", "nxdomain", "akamai", "google"}
	header := []string{side + " series", "total", "share"}
	var allTotal uint64
	for _, p := range series["all"] {
		allTotal += p.Volume
	}
	var rows [][]string
	for _, n := range names {
		var total uint64
		for _, p := range series[n] {
			total += p.Volume
		}
		share := 0.0
		if allTotal > 0 {
			share = float64(total) / float64(allTotal)
		}
		rows = append(rows, []string{n, fmt.Sprintf("%d", total), pct(share)})
	}
	return renderTable(header, rows)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// --- Figure 3: lookup-volume and domain-hit-rate long tails --------------

// Fig3Result summarizes the long-tail distributions of one day.
type Fig3Result struct {
	Date string
	// Lookup volume (Figure 3a).
	Records     int
	TailUnder10 float64 // fraction of RRs with < 10 lookups
	VolumeCDF   []stats.Point
	// Domain hit rate (Figure 3b).
	ZeroDHRFrac float64
	DHRCDF      []stats.Point
}

// Fig3LongTail measures both tails of one February-calibrated day; the
// run simulates the day once for Figures 3a and 3b.
func (r *Run) Fig3LongTail() (*Fig3Result, error) { return r.fig3() }

func fig3LongTail(scale sim.Scale) (*Fig3Result, error) {
	env, err := sim.NewEnv(scale)
	if err != nil {
		return nil, err
	}
	p := workload.FebruaryProfile(dateAt(0))
	collector, err := env.RunDay(p)
	if err != nil {
		return nil, err
	}
	vols := collector.LookupVolumes(nil)
	dhrs := collector.DHRSample(nil)
	res := &Fig3Result{
		Date:        p.Label,
		Records:     len(vols),
		TailUnder10: stats.FractionLeq(vols, 9),
		ZeroDHRFrac: stats.FractionZero(dhrs),
		VolumeCDF:   stats.NewCDF(vols).Points(32),
		DHRCDF:      stats.NewCDF(dhrs).Points(21),
	}
	return res, nil
}

// Render prints the headline tail fractions.
func (r *Fig3Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3 — DNS long tail, %s (%d distinct RRs)\n", r.Date, r.Records)
	fmt.Fprintf(&sb, "  (3a) RRs with < 10 lookups/day: %s (paper: >90%%)\n", pct(r.TailUnder10))
	fmt.Fprintf(&sb, "  (3b) RRs with zero domain hit rate: %s (paper: ~89%%)\n", pct(r.ZeroDHRFrac))
	return sb.String()
}

// --- Figure 4: cache hit rate distribution --------------------------------

// Fig4Result holds the CHR CDF of a single day and a multi-day aggregate.
type Fig4Result struct {
	DayCDF       []stats.Point
	DayBelowHalf float64 // fraction of CHR values below 0.5 (paper: 58%)
	AggregateCDF []stats.Point
	Days         int
}

// Fig4CHR measures the cache-hit-rate distribution for one day (Figure 4a)
// and across several days (Figure 4b).
func Fig4CHR(scale sim.Scale, days int) (*Fig4Result, error) {
	env, err := sim.NewEnv(scale)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Days: days}
	var aggregate []float64
	for d := 0; d < days; d++ {
		p := workload.DecemberProfile(dateAt(d))
		collector, err := env.RunDay(p)
		if err != nil {
			return nil, err
		}
		sample := collector.CHRSample(nil, 64)
		if d == 0 {
			res.DayCDF = stats.NewCDF(sample).Points(21)
			res.DayBelowHalf = stats.NewCDF(sample).At(0.4999)
		}
		aggregate = append(aggregate, sample...)
	}
	res.AggregateCDF = stats.NewCDF(aggregate).Points(21)
	return res, nil
}

// Render prints the CDF and the below-0.5 headline.
func (r *Fig4Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4 — cache hit rate distribution (1 day + %d-day aggregate)\n", r.Days)
	fmt.Fprintf(&sb, "  CHR values below 0.5 on day 1: %s (paper: 58%%)\n", pct(r.DayBelowHalf))
	sb.WriteString("  day-1 CDF: ")
	for _, p := range r.DayCDF {
		fmt.Fprintf(&sb, "(%.2f,%.2f) ", p.X, p.Y)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// --- Figure 5: deduplicated new resource records per day ------------------

// Fig5Result tracks rpDNS new-RR volumes over consecutive days.
type Fig5Result struct {
	Days     []pdns.DayCounts
	TotalRRs int
	// Trend summaries: final-day count / first-day count per series.
	AllTrend    float64
	AkamaiTrend float64
	GoogleTrend float64
}

// Fig5NewRRs reports the rpDNS bootstrap's new records per day (paper:
// 11/28-12/10) for the overall stream, Akamai and Google. Google's
// measurement experiment ramps up over the window, as the paper observed.
func (r *Run) Fig5NewRRs() (*Fig5Result, error) {
	b, err := r.bootstrap()
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Days: b.store.Days(), TotalRRs: b.store.Len()}
	if len(res.Days) >= 2 {
		first, last := res.Days[0], res.Days[len(res.Days)-1]
		res.AllTrend = ratio(last.New, first.New)
		res.AkamaiTrend = ratio(last.PerSeries[0], first.PerSeries[0])
		res.GoogleTrend = ratio(last.PerSeries[1], first.PerSeries[1])
	}
	return res, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Render prints the per-day table and trends.
func (r *Fig5Result) Render() string {
	header := []string{"day", "new RRs", "akamai", "google"}
	var rows [][]string
	for _, d := range r.Days {
		rows = append(rows, []string{
			d.Date.Format("01-02"),
			fmt.Sprintf("%d", d.New),
			fmt.Sprintf("%d", d.PerSeries[0]),
			fmt.Sprintf("%d", d.PerSeries[1]),
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5 — new deduplicated RRs per day (%d total RRs)\n", r.TotalRRs)
	sb.WriteString(renderTable(header, rows))
	fmt.Fprintf(&sb, "trend last/first day: all %.2fx (paper ~0.70x), akamai %.2fx (paper ~0.31x), google %.2fx (paper ~1.25x)\n",
		r.AllTrend, r.AkamaiTrend, r.GoogleTrend)
	return sb.String()
}
