// Command dnsnoise-gen generates a synthetic ISP DNS query trace (JSON
// lines) using the calibrated workload model. The trace carries ground-truth
// disposable labels so downstream tools can score the miner.
//
// The namespace is derived deterministically from -seed; replaying the
// trace (dnsnoise-mine -trace) must use the same seed and sizing flags so
// the authoritative side can answer the generated names.
//
// The pipeline is an ingest source→sink pump: the generator source feeds
// the trace writer directly, with no resolver in between. An -out name
// ending in ".gz" writes a gzip-compressed trace.
//
// Usage:
//
//	dnsnoise-gen -out trace.jsonl -profile december -days 1 -events 100000
package main

import (
	"flag"
	"fmt"
	"os"

	"dnsnoise/internal/ingest"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/traceio"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-gen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dnsnoise-gen", flag.ContinueOnError)
	out := fs.String("out", "trace.jsonl", "output trace file ('-' for stdout; '.gz' suffix compresses)")
	scale := sim.Default()
	scale.RegisterNamespaceFlags(fs)
	scale.RegisterTrafficFlags(fs)
	var source sim.Source
	source.RegisterProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	env, err := sim.NewNamespace(scale)
	if err != nil {
		return err
	}
	profiles, err := source.Profiles()
	if err != nil {
		return err
	}

	w, done, err := traceio.CreatePath(*out)
	if err != nil {
		return err
	}
	// One pump per profile so the per-day progress line lands between days.
	for _, p := range profiles {
		if _, err := ingest.Pump(ingest.NewGeneratorSource(env.Generator, p), w); err != nil {
			done()
			return err
		}
		fmt.Fprintf(os.Stderr, "generated %s (%d events total)\n", p.Label, w.Count())
	}
	return done()
}
