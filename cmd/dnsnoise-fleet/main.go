// Command dnsnoise-fleet runs an in-process multi-PoP resolver fleet:
// N independent clusters behind client steering over one shared
// authoritative namespace. The query stream is either generated live
// (-live, the default) or replayed from a dnsnoise-gen trace (-trace);
// either way each client's queries steer to one PoP, every PoP runs the
// full ingest pipeline with its own pDNS store, and the merged rpDNS view
// reproduces a single-cluster run over the same stream bit for bit.
//
// With -score each PoP also runs the incremental miner: a classifier is
// trained on a single-cluster pre-pass over the same workload, then
// every PoP re-scores its own traffic each scoreWindow of simulated time
// and stamps live verdicts into its query events.
//
// The fleet is observed with the flags and surfaces of every simulation
// CLI (-metrics-addr, -report, -qlog, -tsdb-interval, ...): each PoP's
// series carry a pop="N" label on /metrics, /debug/tsdb and in the report,
// whose span forest holds one pop-N tree per PoP; its query events carry
// their pop (/debug/qlog?pop=N&verdict=disposable scopes the tail).
//
// Usage:
//
//	dnsnoise-fleet -pops 3 -days 2 -metrics-addr :8090 -linger 30s
//	dnsnoise-fleet -pops 3 -days 2 -metrics-addr :8090 -tsdb-interval 1s -linger 5m
//	dnsnoise-fleet -trace trace.jsonl -pops 4 -report -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/fleet"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/sim"
)

// scoreWindow is each PoP's re-score cadence in simulated time under
// -score: four windows a day.
const scoreWindow = 6 * time.Hour

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-fleet:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dnsnoise-fleet", flag.ContinueOnError)
	scale := sim.Default()
	scale.RegisterNamespaceFlags(fs)
	scale.RegisterTrafficFlags(fs)
	scale.RegisterClusterFlags(fs)
	var (
		source   sim.Source
		obs      sim.Obs
		pops     = fs.Int("pops", 3, "resolver PoPs in the fleet")
		linger   = fs.Duration("linger", 0, "keep the -metrics-addr endpoint serving this long after the run (for scrapes)")
		parallel = fs.Bool("parallel", false, "resolve through per-server resolver workers in each PoP")

		score = fs.Bool("score", false, "train a classifier on a single-cluster pre-pass, then run the incremental miner in every PoP")
		theta = fs.Float64("theta", 0.9, "classification threshold (with -score)")
	)
	source.RegisterFlags(fs)
	obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if source.Trace == "" {
		source.Live = true // the fleet's default stream
	}
	if err := source.Validate(); err != nil {
		return err
	}
	if *pops < 1 {
		return fmt.Errorf("-pops must be >= 1")
	}
	if err := obs.Start("dnsnoise-fleet", args); err != nil {
		return err
	}
	defer obs.Close()

	cfg := fleet.Config{Pops: *pops, Scale: scale, Parallel: *parallel, Obs: &obs}
	if *score {
		// The single-cluster pre-pass: the same workload through one
		// ordinary cluster over a fresh world of the same scale, to train
		// the classifier the PoPs score with — mirroring dnsnoise-mine.
		env, err := sim.NewEnv(scale)
		if err != nil {
			return err
		}
		var opts []ingest.Option
		if *parallel {
			opts = append(opts, ingest.WithParallel())
		}
		w, err := source.Run(env, opts...)
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
		clf, _, err := env.Train(w.Collector.ByName(), core.TrainingConfig{})
		if err != nil {
			return err
		}
		cfg.ScoreWindow = scoreWindow
		cfg.NewScorer = func(int) (*core.StreamingPipeline, error) {
			return core.NewStreamingPipeline(clf,
				core.MinerConfig{Theta: *theta},
				core.StreamingConfig{NumServers: scale.Servers}, nil)
		}
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}

	src, replayDay, err := source.Open(f.Env())
	if err != nil {
		return err
	}
	defer src.Close()
	start := time.Now()
	if err := f.Run(src, replayDay); err != nil {
		return err
	}
	// Wall-clock time goes to stderr, as in dnsnoise-exp: stdout is the same
	// bytes on every run of the same flags.
	fmt.Fprintf(os.Stderr, "(fleet run in %s)\n", time.Since(start).Round(time.Millisecond))

	var total uint64
	for _, p := range f.Pops() {
		st := p.Cluster.Stats()
		total += st.Queries
		chr := 0.0
		if st.Queries > 0 {
			chr = float64(st.CacheHits) / float64(st.Queries)
		}
		fmt.Fprintf(stdout, "pop %d: %d queries, %.1f%% cache hits, %d upstream round trips, %d pdns records\n",
			p.ID, st.Queries, 100*chr, st.UpstreamRTs, p.Store.Len())
	}
	merged := f.MergedStore()
	fmt.Fprintf(stdout, "fleet: %d queries across %d pops (hash steering); merged pdns: %d records, %d disposable\n",
		total, *pops, merged.Len(), merged.DisposableCount())

	if *linger > 0 && obs.MetricsAddr != "" {
		fmt.Fprintf(stdout, "lingering %s\n", *linger)
		time.Sleep(*linger)
	}
	return obs.Close()
}
