// Command dnsnoise-fleet runs an in-process multi-PoP resolver fleet:
// N independent clusters behind client steering, one shared
// authoritative namespace, and an aggregating collector that serves the
// fleet-wide control-plane API. The query stream is either generated
// live (-live, the default) or replayed from a dnsnoise-gen trace
// (-trace); either way each client's queries steer to one PoP, every
// PoP runs the full ingest pipeline with its own telemetry, event log,
// pDNS store, and hourly counters, and the merged measurements
// reproduce a single-cluster run over the same stream bit for bit.
//
// With -score each PoP also runs the incremental miner: a classifier is
// trained on a single-cluster pre-pass over the same workload, then
// every PoP re-scores its own traffic each -score-window of simulated
// time and stamps live verdicts into its event log.
//
// The control plane (-metrics-addr) serves:
//
//	GET /fleet/metrics  merged Prometheus exposition (pop= labels)
//	GET /fleet/pops     per-PoP health JSON
//	GET /fleet/qlog     merged event tail (zone/server/pop/... filters)
//	GET /fleet/report   fleet run report, one span tree per PoP
//	GET /fleet/tsdb     time-series range queries (with -tsdb-interval)
//	GET /fleet/alerts   SLO rule status and transitions (with -tsdb-interval)
//
// Usage:
//
//	dnsnoise-fleet -pops 3 -days 2 -metrics-addr :8090 -linger 30s
//	dnsnoise-fleet -pops 3 -days 2 -metrics-addr :8090 -tsdb-interval 1s -linger 5m
//	dnsnoise-fleet -trace trace.jsonl -pops 4 -steering modulo -report -
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
	"dnsnoise/internal/telemetry/alerts"
)

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
		source sim.Source
		// -tsdb-interval, -tsdb-retain and -alert-rules as everywhere, except
		// that here the interval also replaces -collect-every: the tsdb
		// records the collector's sweeps.
		tsdbFlags alerts.CLIConfig

		pops      = fs.Int("pops", 3, "resolver PoPs in the fleet")
		steering  = fs.String("steering", "hash", "client steering: hash (rendezvous) or modulo")
		metrics   = fs.String("metrics-addr", "", "serve the /fleet/* control-plane API on this address (':0' picks a port)")
		qlogN     = fs.Int("qlog", 0, "sample 1 in N queries per server into each PoP's event log (0 = library default)")
		report    = fs.String("report", "", "write the fleet run report as JSON to this path ('-' for stdout)")
		linger    = fs.Duration("linger", 0, "keep the control plane serving this long after the run (for scrapes)")
		collectEv = fs.Duration("collect-every", 2*time.Second, "collector sweep cadence")
		parallel  = fs.Bool("parallel", false, "resolve through per-server resolver workers in each PoP")

		score    = fs.Bool("score", false, "train a classifier on a single-cluster pre-pass, then run the incremental miner in every PoP")
		scoreWin = fs.Duration("score-window", 6*time.Hour, "re-score cadence in simulated time (with -score)")
		theta    = fs.Float64("theta", 0.9, "classification threshold (with -score)")
		hyster   = fs.Int("hysteresis", 2, "consecutive windows to flip a zone's verdict (with -score)")
	)
	source.RegisterFlags(fs)
	tsdbFlags.RegisterFlags(fs)
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
	steer, err := fleet.ParseSteering(*steering)
	if err != nil {
		return err
	}

	cfg := fleet.Config{
		Pops:         *pops,
		Steering:     steer,
		Scale:        scale,
		Parallel:     *parallel,
		QlogSample:   *qlogN,
		CollectEvery: *collectEv,
	}
	if tsdbFlags.Interval > 0 {
		cfg.TSDB = true
		cfg.TSDBRetain = tsdbFlags.Retain
		cfg.CollectEvery = tsdbFlags.Interval
		rules, err := tsdbFlags.Rules()
		if err != nil {
			return err
		}
		if rules == nil {
			rules = []alerts.Rule{} // "none": non-nil empty disables alerting
		}
		cfg.AlertRules = rules
	}
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
		cfg.ScoreWindow = *scoreWin
		cfg.NewScorer = func(int) (*core.StreamingPipeline, error) {
			return core.NewStreamingPipeline(clf,
				core.MinerConfig{Theta: *theta},
				core.StreamingConfig{Hysteresis: *hyster, NumServers: scale.Servers}, nil)
		}
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}

	var srv *fleet.Server
	if *metrics != "" {
		if srv, err = f.Serve(*metrics); err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "control plane on http://%s/fleet/metrics (pops, qlog, report)\n", srv.Addr())
	}
	f.Collector().Start()
	defer f.Collector().Stop()

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
	fmt.Fprintf(stdout, "fleet: %d queries across %d pops (%s steering); merged pdns: %d records, %d disposable\n",
		total, *pops, steer, merged.Len(), merged.DisposableCount())

	if *report != "" {
		rep := f.Report()
		rep.Args = args
		if err := rep.WriteFile(*report); err != nil {
			return err
		}
	}
	if *linger > 0 && srv != nil {
		fmt.Fprintf(stdout, "lingering %s on http://%s\n", *linger, srv.Addr())
		time.Sleep(*linger)
	}
	return nil
}
