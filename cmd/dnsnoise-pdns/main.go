// Command dnsnoise-pdns builds a passive DNS (rpDNS) database from a query
// stream, reports its growth and composition, and — optionally — mines the
// stream and applies the Section VI-C wildcard-collapse mitigation to show
// the storage reduction. The stream either replays recorded traces
// (-trace, comma-separated, gzip sniffed) or is generated live in-process
// (-live), through the same ingest pipeline dnsnoise-mine uses.
//
// Usage:
//
//	dnsnoise-gen -out trace.jsonl -days 5
//	dnsnoise-pdns -trace trace.jsonl -collapse
//	dnsnoise-pdns -live -days 5 -collapse
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dnsnoise/internal/core"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-pdns:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dnsnoise-pdns", flag.ContinueOnError)
	scale := sim.Default()
	scale.RegisterNamespaceFlags(fs)
	scale.RegisterTrafficFlags(fs)
	scale.RegisterClusterFlags(fs)
	var (
		source   sim.Source
		obs      sim.Obs
		collapse = fs.Bool("collapse", false, "mine the stream and apply the wildcard-collapse mitigation")
		theta    = fs.Float64("theta", 0.9, "mining threshold for -collapse")
		fpOut    = fs.String("fpdns", "", "also dump the full fpDNS tuple stream (JSONL) to this file")
		explain  = fs.String("explain", "", "with -collapse, write one provenance record per classifier decision as JSON lines to this path (.gz compresses)")
	)
	source.RegisterFlags(fs)
	obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := source.Validate(); err != nil {
		return err
	}
	if *explain != "" && !*collapse {
		return fmt.Errorf("-explain requires -collapse (the mining pass produces the records)")
	}

	if err := obs.Start("dnsnoise-pdns", args); err != nil {
		return err
	}
	defer obs.Close()
	env, err := sim.NewEnv(scale, sim.WithResolverOptions(obs.ResolverOptions()...))
	if err != nil {
		return err
	}

	store := pdns.NewStore()
	store.SetMetrics(obs.Registry)
	var fp *jsonl.Writer[pdns.FpRecord]
	sinks := []ingest.ObservationSink{ingest.TapSink(store.Tap(), nil)}
	if *fpOut != "" {
		if fp, err = jsonl.Create[pdns.FpRecord](*fpOut); err != nil {
			return err
		}
		defer fp.Close()
		sinks = append(sinks, ingest.TapSink(pdns.FpWriter{Writer: fp}.Tap(), nil))
	}

	w, err := source.Run(env, append(obs.IngestOptions(), ingest.WithSinks(sinks...))...)
	if err != nil {
		return err
	}

	if fp != nil {
		if err := fp.Close(); err != nil {
			return fmt.Errorf("fpdns: %w", err)
		}
		fmt.Fprintf(stdout, "fpDNS stream: %d tuples written to %s\n", fp.Count(), *fpOut)
	}
	fmt.Fprintf(stdout, "pDNS database from %d events:\n", w.Queries)
	fmt.Fprintf(stdout, "  distinct resource records: %d (%.1f MB)\n",
		store.Len(), float64(store.StorageBytes())/1e6)
	disp := store.DisposableCount()
	fmt.Fprintf(stdout, "  disposable (ground truth): %d (%.1f%%)\n",
		disp, 100*float64(disp)/float64(store.Len()))
	fmt.Fprintln(stdout, "  new records per day:")
	for _, d := range store.Days() {
		fmt.Fprintf(stdout, "    %s  new=%-8d disposable=%-8d (%.1f%%)\n",
			d.Date.Format("2006-01-02"), d.New, d.Disposable,
			100*float64(d.Disposable)/float64(max(d.New, 1)))
	}

	if !*collapse {
		return obs.Close()
	}
	_, findings, err := env.MineWindow(w.Collector.ByName(), *theta, *explain, &obs)
	if err != nil {
		return err
	}
	collapseSpan := obs.Tracer.Start("collapse")
	matcher := core.NewMatcher(findings)
	res := store.CollapseWildcards(matcher.Match)
	collapseSpan.AddItems(int64(res.Collapsed))
	collapseSpan.End()
	fmt.Fprintf(stdout, "\nwildcard collapse with %d mined zones:\n", len(matcher.Zones()))
	fmt.Fprintf(stdout, "  %d -> %d records; disposable population shrinks to %.2f%% (paper: 0.7%%)\n",
		res.Before, res.After, res.DisposableRatio()*100)
	fmt.Fprintf(stdout, "  %d records folded into %d wildcards; storage %.1f MB -> %.1f MB\n",
		res.Collapsed, res.Wildcards,
		float64(store.StorageBytes())/1e6, float64(res.BytesAfter)/1e6)
	return obs.Close()
}
