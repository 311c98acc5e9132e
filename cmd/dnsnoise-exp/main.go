// Command dnsnoise-exp regenerates the paper's tables and figures from the
// simulation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	dnsnoise-exp -id all            # every experiment at the default scale
//	dnsnoise-exp -id all -parallel 4
//	dnsnoise-exp -id fig12 -scale small
//	dnsnoise-exp -list
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"dnsnoise/internal/experiments"
	"dnsnoise/internal/sim"
)

// experiment binds an id to its runner, which returns the id's report.
// Every runner of one invocation reads the same experiments.Run, so ids
// that share a dataset simulate it once.
type experiment struct {
	id    string
	about string
	run   func(r *experiments.Run) (string, error)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-exp:", err)
		os.Exit(1)
	}
}

func catalog() []experiment {
	type Run = experiments.Run
	return []experiment{
		{"fig2", "traffic above/below the RDNS cluster (6 days)", func(r *Run) (string, error) { return show(experiments.Fig2TrafficProfile(r.Scale(), 6)) }},
		{"fig3a", "lookup volume long tail", func(r *Run) (string, error) { return show(r.Fig3LongTail()) }},
		{"fig3b", "domain hit rate long tail", func(r *Run) (string, error) { return show(r.Fig3LongTail()) }},
		{"fig4", "cache hit rate distribution", func(r *Run) (string, error) { return show(experiments.Fig4CHR(r.Scale(), 3)) }},
		{"fig5", "new deduplicated RRs per day (13 days)", func(r *Run) (string, error) { return show(r.Fig5NewRRs()) }},
		{"fig7", "CHR distribution: disposable vs non-disposable", func(r *Run) (string, error) { return show(r.Fig7LabeledCHR()) }},
		{"fig11", "measurement results summary", growth((*experiments.GrowthResult).RenderFig11)},
		{"fig12", "classifier ROC + model selection", func(r *Run) (string, error) { return show(r.Fig12ROC()) }},
		{"fig13", "growth of disposable zones (6 dates)", growth((*experiments.GrowthResult).RenderFig13)},
		{"fig14", "disposable TTL histogram (first vs last date)", growth((*experiments.GrowthResult).RenderFig14)},
		{"fig15", "pDNS growth + wildcard collapse (13 days)", func(r *Run) (string, error) { return show(r.Fig15PDNSGrowth()) }},
		{"table1", "disposable RRs in the lookup-volume tail", growth((*experiments.GrowthResult).RenderTables)},
		{"table2", "disposable RRs in the zero-DHR tail", growth((*experiments.GrowthResult).RenderTables)},
		{"cache", "Section VI-A cache pressure sweep", func(r *Run) (string, error) { return show(r.CachePressure(nil)) }},
		{"cache-policy", "Section VI-A impact analysis under LRU and SIEVE", func(r *Run) (string, error) { return show(r.CachePolicySweep()) }},
		{"dnssec", "Section VI-B DNSSEC validation load", func(r *Run) (string, error) { return show(r.DNSSECLoad()) }},
		{"mitigation", "Section VI-A low-priority caching mitigation", func(r *Run) (string, error) { return show(r.CacheMitigation(0.3)) }},
		{"crossnet", "cross-network globally disposable zones", func(r *Run) (string, error) { return show(experiments.CrossNetwork(r.Scale())) }},
		{"clients", "distinct clients per RR by class", func(r *Run) (string, error) { return show(r.ClientCardinality()) }},
		{"renewal", "Jung TTL renewal model vs black-box measurement", func(r *Run) (string, error) { return show(r.RenewalModel()) }},
		{"taxonomy", "Plonka treetop taxonomy vs disposable class", func(r *Run) (string, error) { return show(r.Taxonomy()) }},
		{"baseline", "Yadav name-only detector vs the miner", func(r *Run) (string, error) { return show(r.Baseline()) }},
		{"ablation-features", "feature family ablation", func(r *Run) (string, error) { return show(r.FeatureAblation()) }},
		{"ablation-cache", "independent vs shared cache ablation", func(r *Run) (string, error) { return show(r.SharedCacheAblation()) }},
	}
}

// show renders an experiment's result.
func show[R interface{ Render() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// growth renders one view of the run's growth study.
func growth(view func(*experiments.GrowthResult) string) func(*experiments.Run) (string, error) {
	return func(r *experiments.Run) (string, error) {
		res, err := r.GrowthStudy()
		if err != nil {
			return "", err
		}
		return view(res), nil
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dnsnoise-exp", flag.ContinueOnError)
	var (
		id       = fs.String("id", "all", "experiment id, or 'all'")
		scale    = fs.String("scale", "default", "simulation scale: small or default")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		parallel = fs.Int("parallel", 1, "run up to N experiments concurrently")
		// Not sim's namespace -seed: the namespace comes from -scale, and
		// this only overrides that scale's seed.
		seed = fs.Int64("seed", 0, "override the scale's seed (0 keeps the default)")
		// Only the cache policy lands here; -scale sizes everything else.
		knobs sim.Scale
		obs   sim.Obs
	)
	knobs.RegisterCacheFlags(fs)
	obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps := catalog()
	if *list {
		sort.Slice(exps, func(i, j int) bool { return exps[i].id < exps[j].id })
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-18s %s\n", e.id, e.about)
		}
		return nil
	}

	var sc sim.Scale
	switch *scale {
	case "small":
		sc = sim.Small()
	case "default":
		sc = sim.Default()
	default:
		return fmt.Errorf("unknown scale %q (small, default)", *scale)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.CachePolicy = knobs.CachePolicy

	var selected []experiment
	for _, e := range exps {
		if *id == "all" || e.id == *id {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment id %q (try -list)", *id)
	}
	if *parallel < 1 {
		*parallel = 1
	}

	if err := obs.Start("dnsnoise-exp", args); err != nil {
		return err
	}
	defer obs.Close()
	// One query log is shared by every selected experiment's cluster. Each
	// cluster drains only its own recorders at day boundaries
	// (Cluster.FlushQueryLog), so concurrent -parallel experiments never
	// flush each other's live workers; obs.Close drains the rest at exit.
	sc.QueryLog = obs.Log()
	// One run for every selected id: the datasets several ids read (the
	// reference day, the 13-day rpDNS bootstrap, the growth study, the
	// February day) are simulated once, by whichever id needs them first.
	shared := experiments.NewRun(sc, 13)
	// Experiments run concurrently under -parallel, so each owns a root
	// span; the progress line prints the completion counter and the gauge.
	completed := obs.Registry.Counter("exp_completed_total",
		"Experiments finished so far.")
	obs.Registry.Gauge("exp_selected", "Experiments this run selected.").Set(float64(len(selected)))

	runOne := func(e experiment, out io.Writer) error {
		start := time.Now()
		sp := obs.Tracer.StartRoot(e.id)
		fmt.Fprintf(out, "=== %s — %s ===\n", e.id, e.about)
		report, err := e.run(shared)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.id, err)
		}
		fmt.Fprintln(out, report)
		sp.End()
		completed.Inc()
		// Wall clock goes to stderr: stdout is the report, byte-identical
		// across runs, -parallel settings and observability flags.
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", e.id, time.Since(start).Seconds())
		_, err = fmt.Fprintln(out)
		return err
	}
	if *parallel == 1 {
		// Sequential runs stream output as each experiment completes.
		for _, e := range selected {
			if err := runOne(e, stdout); err != nil {
				return err
			}
		}
		return obs.Close()
	}

	// Experiments only read what they share (a dataset is built once and
	// handed to every reader; the rest build their own world from the
	// scale's seed), so they fan out over a bounded worker pool. Output is
	// buffered per experiment and printed in catalog order, so -parallel
	// changes wall-clock only, never the report.
	type report struct {
		buf bytes.Buffer
		err error
	}
	reports := make([]report, len(selected))
	var wg sync.WaitGroup
	sem := make(chan struct{}, *parallel)
	for i, e := range selected {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, e experiment) {
			defer wg.Done()
			defer func() { <-sem }()
			reports[i].err = runOne(e, &reports[i].buf)
		}(i, e)
	}
	wg.Wait()
	for i := range reports {
		if reports[i].err != nil {
			return reports[i].err
		}
		if _, err := stdout.Write(reports[i].buf.Bytes()); err != nil {
			return err
		}
	}
	return obs.Close()
}
