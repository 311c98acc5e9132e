package main

import (
	"fmt"
	"os"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/features"
	"dnsnoise/internal/livescore"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/telemetry"
)

// serveScale is the default served namespace, with the -score training
// day sized beside it: enough traffic to learn the tree-shape split and
// prime the verdict set, small enough that serve startup stays in seconds.
func serveScale() sim.Scale {
	s := sim.Default()
	s.Servers, s.CacheSize = 2, 1<<14
	s.Clients, s.BaseEventsPerDay = 1000, 60_000
	return s
}

// scoreConfig carries the -score flag family.
type scoreConfig struct {
	enabled    bool
	theta      float64
	window     time.Duration
	hysteresis int
}

// buildScoring boots live scoring for the serve path: it simulates one
// training day against the same generated namespace the server answers
// for, trains the classifier on ground-truth labels, mines that day with
// the batch miner, and primes a streaming pipeline with the findings. The
// returned engine is already running — its scorers classify datagrams
// against the primed snapshot and note each name into the miner on their
// listener's goroutine, while the engine re-scores every cfg.window of
// wall time.
// Beside it comes one mined disposable name, "" when the mine found none.
//
// The classifier is restricted to the tree-structure feature family: the
// serve path observes names, not cache-hit outcomes, so the CHR features
// would read as zero at re-score time and poison full-vector splits.
func buildScoring(env *sim.Env, cfg scoreConfig, treg *telemetry.Registry) (*livescore.Engine, string, error) {
	// The training cluster registers its gauges (cache occupancy by state,
	// hit counters) on the serve session registry, so /metrics exposes the
	// resolver side of -score alongside the UDP counters.
	var err error
	if env.Cluster, err = env.NewCluster(resolver.WithTelemetry(treg)); err != nil {
		return nil, "", fmt.Errorf("score: training cluster: %w", err)
	}
	day, err := (&sim.Source{Live: true, Profile: "december", Days: 1}).Run(env)
	if err != nil {
		return nil, "", fmt.Errorf("score: training day: %w", err)
	}
	byName := day.Collector.ByName()

	trainCfg := core.TrainingConfig{FeatureMask: features.TreeStructureIdx}
	clf, examples, err := env.Train(byName, trainCfg)
	if err != nil {
		return nil, "", fmt.Errorf("score: %w", err)
	}
	mcfg := core.MinerConfig{Theta: cfg.theta, FeatureMask: features.TreeStructureIdx}
	miner, err := core.NewMiner(clf, mcfg)
	if err != nil {
		return nil, "", err
	}
	findings, err := miner.Mine(core.BuildTree(byName, env.Suffixes), byName)
	if err != nil {
		return nil, "", fmt.Errorf("score: prime mine: %w", err)
	}

	pipe, err := core.NewStreamingPipeline(clf, mcfg,
		core.StreamingConfig{Hysteresis: cfg.hysteresis}, nil)
	if err != nil {
		return nil, "", err
	}
	pipe.Prime(findings)
	pipe.SetMetrics(treg)
	eng := livescore.NewEngine(pipe)
	eng.Start(cfg.window)

	snap := pipe.Snapshot()
	pairs := 0
	if snap != nil {
		pairs = snap.Pairs()
	}
	fmt.Fprintf(os.Stderr, "scoring: trained on %d examples, primed %d zone/depth pairs (hysteresis %d, re-score every %s)\n",
		len(examples), pairs, cfg.hysteresis, cfg.window)
	example := exampleDisposableName(findings)
	if example != "" {
		// One concrete name CI smoke (and humans) can dig to watch a
		// disposable verdict land in /debug/qlog?verdict=disposable.
		fmt.Fprintf(os.Stderr, "scoring: example disposable name: %s\n", example)
	}
	return eng, example, nil
}

// exampleDisposableName picks one mined member name to advertise on
// stderr.
func exampleDisposableName(findings []core.Finding) string {
	for _, f := range findings {
		if len(f.Names) > 0 {
			return f.Names[0]
		}
	}
	return ""
}
