package main

import (
	"fmt"
	"os"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/features"
	"dnsnoise/internal/livescore"
	"dnsnoise/internal/mlearn"
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
	enabled bool
	theta   float64
	window  time.Duration
}

// serveHorizon is the live miner's sliding horizon, in re-score windows: a
// name no listener has noted for this many windows leaves the tree. The
// serve path never closes a day, and a flood of fresh names (a
// random-subdomain attack) can arrive within one, so without a horizon
// every distinct name ever queried would stay for the life of the process;
// with it the miner holds at most this many windows of names.
//
// What the verdicts catch depends on the span the horizon covers, this many
// times -window, and on how many queries that span holds, not on how many
// windows divide it. Replaying a simulated December day (138 k queries,
// 1.6 a second) through this configuration, scoring each query as the
// listeners do, the verdicts flagged 78.5 % of the disposable queries at
// -window 1h (an 8 h span) against 82.2 % with no horizon; the same 8 h span
// cut into 32 windows of 15 min gave 76.8 % (81.0 % with none). At the default -window 30s the
// span is four minutes, and at that rate it caught 32 % against 80 %: a
// server that quiet needs a longer -window. So the constant does not decide
// detection; it decides how finely the span slides and how many windows of
// names a flood can pin, and at 8 the hysteresis run that flips a verdict
// (core.DefaultHysteresis, 2 windows) is a quarter of the span.
// TestServeHorizonKeepsDetection pins the 8 h case.
const serveHorizon = 8

// serveStreaming is the live miner's configuration.
var serveStreaming = core.StreamingConfig{KeepWindows: serveHorizon}

// serveMiner is what the live miner is built from: the classifier, the
// miner configuration and the batch mine of the training day that primes
// it.
type serveMiner struct {
	clf      *mlearn.DecisionTree
	mcfg     core.MinerConfig
	findings []core.Finding
	examples int
}

// trainServeMiner simulates one training day against the same generated
// namespace the server answers for, trains the classifier on ground-truth
// labels and mines that day with the batch miner. The training cluster
// registers its gauges (cache occupancy by state, hit counters) on treg, so
// /metrics exposes the resolver side of -score alongside the UDP counters.
//
// The classifier is restricted to the tree-structure feature family: the
// serve path observes names, not cache-hit outcomes, so the CHR features
// would read as zero at re-score time and poison full-vector splits.
func trainServeMiner(env *sim.Env, theta float64, treg *telemetry.Registry) (serveMiner, error) {
	var err error
	if env.Cluster, err = env.NewCluster(resolver.WithTelemetry(treg)); err != nil {
		return serveMiner{}, fmt.Errorf("score: training cluster: %w", err)
	}
	day, err := (&sim.Source{Live: true, Profile: "december", Days: 1}).Run(env)
	if err != nil {
		return serveMiner{}, fmt.Errorf("score: training day: %w", err)
	}
	byName := day.Collector.ByName()

	clf, examples, err := env.Train(byName, core.TrainingConfig{FeatureMask: features.TreeStructureIdx})
	if err != nil {
		return serveMiner{}, fmt.Errorf("score: %w", err)
	}
	m := serveMiner{clf: clf, examples: len(examples),
		mcfg: core.MinerConfig{Theta: theta, FeatureMask: features.TreeStructureIdx}}
	miner, err := core.NewMiner(clf, m.mcfg)
	if err != nil {
		return serveMiner{}, err
	}
	if m.findings, err = miner.Mine(core.BuildTree(byName, env.Suffixes), byName); err != nil {
		return serveMiner{}, fmt.Errorf("score: prime mine: %w", err)
	}
	return m, nil
}

// buildScoring boots live scoring for the serve path: it trains the miner
// (trainServeMiner) and primes a streaming pipeline with the training
// day's findings. The returned engine is already running — its scorers
// classify datagrams against the primed snapshot and note each name into
// the miner on their listener's goroutine, while the engine re-scores every
// cfg.window of wall time over the last serveHorizon windows of names.
// Beside it comes one mined disposable name, "" when the mine found none.
// The pipeline's metrics register on reg, the training cluster's on
// clusterReg.
func buildScoring(env *sim.Env, cfg scoreConfig, reg, clusterReg *telemetry.Registry) (*livescore.Engine, string, error) {
	m, err := trainServeMiner(env, cfg.theta, clusterReg)
	if err != nil {
		return nil, "", err
	}
	pipe, err := core.NewStreamingPipeline(m.clf, m.mcfg, serveStreaming, nil)
	if err != nil {
		return nil, "", err
	}
	pipe.Prime(m.findings)
	pipe.SetMetrics(reg)
	eng := livescore.NewEngine(pipe)
	eng.Start(cfg.window)

	snap := pipe.Snapshot()
	pairs := 0
	if snap != nil {
		pairs = snap.Pairs()
	}
	fmt.Fprintf(os.Stderr, "scoring: trained on %d examples, primed %d zone/depth pairs (hysteresis %d, re-score every %s over the last %d windows)\n",
		m.examples, pairs, core.DefaultHysteresis, cfg.window, serveHorizon)
	example := exampleDisposableName(m.findings)
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
