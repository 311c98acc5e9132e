// Command dnsnoise-mine runs the disposable zone miner over a query
// stream. The stream either replays a recorded trace (-trace, possibly
// several files and gzip-compressed) or is generated live in-process
// (-live) — both paths drive the same ingest pipeline through the
// simulated recursive DNS cluster, so mining a trace of a generation run
// prints byte-identical results to mining the live run itself. It trains
// the classifier on the namespace's ground-truth labels, executes
// Algorithm 1, and prints the ranked disposable zones with accuracy
// against ground truth.
//
// The namespace, traffic and -profile flags (internal/sim's shared groups)
// must match the dnsnoise-gen invocation that produced the trace, so the
// rebuilt authoritative namespace evolves through the same per-day states
// while answering the trace's names.
//
// Usage:
//
//	dnsnoise-mine -trace trace.jsonl -theta 0.9 -top 25
//	dnsnoise-mine -live -days 2 -theta 0.9
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dnsnoise/internal/core"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-mine:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dnsnoise-mine", flag.ContinueOnError)
	scale := sim.Default()
	scale.RegisterNamespaceFlags(fs)
	scale.RegisterTrafficFlags(fs)
	scale.RegisterClusterFlags(fs)
	var (
		source    sim.Source
		obs       sim.Obs
		theta     = fs.Float64("theta", 0.9, "classification threshold")
		top       = fs.Int("top", 25, "findings to print")
		parallel  = fs.Bool("parallel", false, "resolve through per-server resolver workers (one goroutine per simulated server)")
		explain   = fs.String("explain", "", "write one provenance record per classifier decision as JSON lines to this path (.gz compresses; with -window the records come from the streaming pass, stamped with window and hysteresis state)")
		verifyExp = fs.String("verify-explain", "", "verify an -explain file (replay every decision path) and exit")
		window    = fs.Duration("window", 0, "after the batch mine, replay the stream through the incremental miner, re-scoring every this much simulated time (0 disables the streaming pass)")
		keepWin   = fs.Int("keep-windows", 0, "sliding horizon for the streaming pass: only the last N re-score windows back a zone's evidence, so stale zones decay and expire (0 = cumulative, matching the batch miner)")
	)
	source.RegisterFlags(fs)
	obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verifyExp != "" {
		return runVerifyExplain(*verifyExp, stdout)
	}
	if err := source.Validate(); err != nil {
		return err
	}
	if *keepWin < 0 {
		return fmt.Errorf("-keep-windows must be >= 0")
	}
	if *keepWin > 0 && *window == 0 {
		return fmt.Errorf("-keep-windows needs the streaming pass; pass -window too")
	}
	if *window > 0 {
		for _, p := range source.Paths() {
			if p == "-" {
				return fmt.Errorf("-window needs to replay the stream a second time; stdin traces cannot be re-read")
			}
		}
	}

	if err := obs.Start("dnsnoise-mine", args); err != nil {
		return err
	}
	defer obs.Close()
	env, err := sim.NewEnv(scale, sim.WithResolverOptions(obs.ResolverOptions()...))
	if err != nil {
		return err
	}

	opts := obs.IngestOptions()
	if *parallel {
		opts = append(opts, ingest.WithParallel())
	}
	w, err := source.Run(env, opts...)
	if err != nil {
		return err
	}
	st := env.Cluster.Stats()
	fmt.Fprintf(stdout, "replayed %d events: %d cache hits (%.1f%%), %d upstream round trips, %d NXDOMAIN\n",
		w.Queries, st.CacheHits, 100*float64(st.CacheHits)/float64(st.Queries), st.UpstreamRTs, st.NXDomains)

	batchExplain := *explain
	if *window > 0 {
		// The streaming pass owns the explain file instead, stamping each
		// record with its window and hysteresis state.
		batchExplain = ""
	}
	clf, findings, err := env.MineWindow(w.Collector.ByName(), *theta, batchExplain, &obs)
	if err != nil {
		return err
	}

	rep := core.Summarize(findings, nil)
	fmt.Fprintf(stdout, "mined %d disposable zones under %d 2LDs covering %d names (%.1f periods/name)\n",
		rep.Zones, rep.E2LDs, rep.Names, rep.MeanPeriods)

	// Score findings against ground truth by their member names: a finding
	// is correct when the majority of its names fall under a
	// disposable-labeled zone.
	isDisp := sim.TruthMatcher(env.Registry.GroundTruth())
	var tp, fp int
	for _, f := range findings {
		hits := 0
		for _, name := range f.Names {
			if isDisp(name) {
				hits++
			}
		}
		if hits*2 >= len(f.Names) {
			tp++
		} else {
			fp++
		}
	}
	fmt.Fprintf(stdout, "finding-level ground truth: %d correct, %d spurious of %d findings\n\n", tp, fp, len(findings))

	fmt.Fprintf(stdout, "%-44s %5s %10s %7s\n", "zone", "depth", "confidence", "names")
	for i, f := range findings {
		if i >= *top {
			fmt.Fprintf(stdout, "... and %d more\n", len(findings)-*top)
			break
		}
		fmt.Fprintf(stdout, "%-44s %5d %10.3f %7d\n", f.Zone, f.Depth, f.Confidence, len(f.Names))
	}
	if *window > 0 {
		pass := &streamingPass{
			scale: scale, source: source, parallel: *parallel,
			clf: clf, theta: *theta, window: *window,
			keepWindows: *keepWin, explain: *explain, batchFindings: findings,
		}
		if err := pass.run(stdout); err != nil {
			return err
		}
	}
	return obs.Close()
}

// runVerifyExplain is the -verify-explain mode: load an explain file and
// replay every decision path against its recorded features.
func runVerifyExplain(path string, stdout io.Writer) error {
	recs, err := jsonl.Open[core.ExplainRecord](path)
	if err != nil {
		return fmt.Errorf("verify-explain: %w", err)
	}
	if err := core.VerifyExplain(recs); err != nil {
		return fmt.Errorf("verify-explain: %w", err)
	}
	disposable := 0
	for _, rec := range recs {
		if rec.Disposable {
			disposable++
		}
	}
	fmt.Fprintf(stdout, "verified %d explain records (%d disposable): all decision paths replay\n",
		len(recs), disposable)
	return nil
}
