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
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"dnsnoise/internal/experiments"
	"dnsnoise/internal/sim"
)

// experiment binds an id to its runner.
type experiment struct {
	id    string
	about string
	run   func(scale sim.Scale, out io.Writer) error
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-exp:", err)
		os.Exit(1)
	}
}

func catalog() []experiment {
	return []experiment{
		{id: "fig2", about: "traffic above/below the RDNS cluster (6 days)", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.Fig2TrafficProfile(s, 6)
			return render(out, r, err)
		}},
		{id: "fig3a", about: "lookup volume long tail", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.Fig3LongTail(s)
			return render(out, r, err)
		}},
		{id: "fig3b", about: "domain hit rate long tail", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.Fig3LongTail(s)
			return render(out, r, err)
		}},
		{id: "fig4", about: "cache hit rate distribution", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.Fig4CHR(s, 3)
			return render(out, r, err)
		}},
		{id: "fig5", about: "new deduplicated RRs per day (13 days)", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.Fig5NewRRs(s, 13)
			return render(out, r, err)
		}},
		{id: "fig7", about: "CHR distribution: disposable vs non-disposable", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.Fig7LabeledCHR(s)
			return render(out, r, err)
		}},
		{id: "fig11", about: "measurement results summary", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.GrowthStudy(s)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(out, r.RenderFig11())
			return err
		}},
		{id: "fig12", about: "classifier ROC + model selection", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.Fig12ROC(s)
			return render(out, r, err)
		}},
		{id: "fig13", about: "growth of disposable zones (6 dates)", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.GrowthStudy(s)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(out, r.RenderFig13())
			return err
		}},
		{id: "fig14", about: "disposable TTL histogram (first vs last date)", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.GrowthStudy(s)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(out, r.RenderFig14())
			return err
		}},
		{id: "fig15", about: "pDNS growth + wildcard collapse (13 days)", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.Fig15PDNSGrowth(s, 13)
			return render(out, r, err)
		}},
		{id: "table1", about: "disposable RRs in the lookup-volume tail", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.GrowthStudy(s)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(out, r.RenderTables())
			return err
		}},
		{id: "table2", about: "disposable RRs in the zero-DHR tail", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.GrowthStudy(s)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(out, r.RenderTables())
			return err
		}},
		{id: "cache", about: "Section VI-A cache pressure sweep", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.CachePressure(s, nil)
			return render(out, r, err)
		}},
		{id: "cache-policy", about: "Section VI-A impact analysis under LRU and SIEVE", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.CachePolicySweep(s)
			return render(out, r, err)
		}},
		{id: "dnssec", about: "Section VI-B DNSSEC validation load", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.DNSSECLoad(s)
			return render(out, r, err)
		}},
		{id: "mitigation", about: "Section VI-A low-priority caching mitigation", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.CacheMitigation(s, 0.3)
			return render(out, r, err)
		}},
		{id: "crossnet", about: "cross-network globally disposable zones", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.CrossNetwork(s)
			return render(out, r, err)
		}},
		{id: "clients", about: "distinct clients per RR by class", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.ClientCardinality(s)
			return render(out, r, err)
		}},
		{id: "renewal", about: "Jung TTL renewal model vs black-box measurement", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.RenewalModel(s)
			return render(out, r, err)
		}},
		{id: "taxonomy", about: "Plonka treetop taxonomy vs disposable class", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.Taxonomy(s)
			return render(out, r, err)
		}},
		{id: "baseline", about: "Yadav name-only detector vs the miner", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.Baseline(s)
			return render(out, r, err)
		}},
		{id: "ablation-features", about: "feature family ablation", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.FeatureAblation(s)
			return render(out, r, err)
		}},
		{id: "ablation-cache", about: "independent vs shared cache ablation", run: func(s sim.Scale, out io.Writer) error {
			r, err := experiments.SharedCacheAblation(s)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(out, r.RenderHitRates())
			return err
		}},
	}
}

func render(out io.Writer, r interface{ Render() string }, err error) error {
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, r.Render())
	return err
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dnsnoise-exp", flag.ContinueOnError)
	var (
		id       = fs.String("id", "all", "experiment id, or 'all'")
		scale    = fs.String("scale", "default", "simulation scale: small or default")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		parallel = fs.Int("parallel", 1, "run up to N experiments concurrently (each builds its own environment)")
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
	// Experiments run concurrently under -parallel, so each owns a root
	// span; the completion counter feeds the periodic progress line.
	completed := obs.Registry.Counter("exp_completed_total",
		"Experiments finished so far.")
	obs.StartProgress(func(time.Duration) []slog.Attr {
		return []slog.Attr{
			slog.Uint64("completed", completed.Value()),
			slog.Int("selected", len(selected)),
		}
	})

	runOne := func(e experiment, out io.Writer) error {
		start := time.Now()
		sp := obs.Tracer.StartRoot(e.id)
		fmt.Fprintf(out, "=== %s — %s ===\n", e.id, e.about)
		if err := e.run(sc, out); err != nil {
			return fmt.Errorf("experiment %s: %w", e.id, err)
		}
		sp.End()
		completed.Inc()
		// Wall clock goes to stderr: stdout is the report, byte-identical
		// across runs, -parallel settings and observability flags.
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", e.id, time.Since(start).Seconds())
		_, err := fmt.Fprintln(out)
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

	// Experiments are independent (each builds its own registry, authority,
	// cluster and generator from the scale's seed), so they fan out over a
	// bounded worker pool. Output is buffered per experiment and printed in
	// catalog order, so -parallel changes wall-clock only, never the report.
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
