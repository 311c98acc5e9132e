package sim

import (
	"fmt"
	"math/rand"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/features"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/workload"
)

// trainingNegatives is how many non-disposable zones the labeled training
// set draws beside every disposable one — the paper's 398 + 401 zones.
const trainingNegatives = 401

// Env bundles the simulation components for a sequence of day runs. The
// resolver caches persist across days, like a production cluster.
type Env struct {
	Scale     Scale
	Registry  *workload.Registry
	Authority *authority.Server
	Cluster   *resolver.Cluster // nil from NewNamespace
	Generator *workload.Generator
	Suffixes  *dnsname.Suffixes

	resolverOpts   []resolver.Option
	signDisposable bool
}

// EnvOption adjusts environment construction.
type EnvOption func(*Env)

// WithResolverOptions appends options to every cluster the environment
// builds.
func WithResolverOptions(opts ...resolver.Option) EnvOption {
	return func(e *Env) { e.resolverOpts = append(e.resolverOpts, opts...) }
}

// WithSignedDisposableZones DNSSEC-signs every disposable zone.
func WithSignedDisposableZones() EnvOption {
	return func(e *Env) { e.signDisposable = true }
}

// NewNamespace builds everything but the resolver cluster: the registry
// from Scale.Seed, its authority (signer seed Seed+1 when zones are
// signed) and the generator, seeded Seed+2 — the derivation dnsnoise-gen
// records with, so any replay that rebuilds the world from the same flags
// draws the same stream. Callers that resolve nothing (dnsnoise-gen), or
// that put several clusters on the one authority (the fleet), add clusters
// with NewCluster.
func NewNamespace(scale Scale, opts ...EnvOption) (*Env, error) {
	e := &Env{Scale: scale, Suffixes: dnsname.DefaultSuffixes()}
	for _, o := range opts {
		o(e)
	}
	e.Registry = workload.NewRegistry(workload.RegistryConfig{
		Seed:               scale.Seed,
		NonDisposableZones: scale.NonDisposableZones,
		DisposableZones:    scale.DisposableZones,
		HostsPerZoneMax:    scale.HostsPerZoneMax,
	})
	var (
		signerRand *rand.Rand
		signed     map[string]bool
	)
	if e.signDisposable {
		signerRand = rand.New(rand.NewSource(scale.Seed + 1))
		signed = make(map[string]bool, len(e.Registry.Disposable))
		for _, z := range e.Registry.Disposable {
			signed[z.Zone] = true
		}
	}
	var err error
	if e.Authority, err = e.Registry.BuildAuthority(signerRand, signed); err != nil {
		return nil, fmt.Errorf("build authority: %w", err)
	}
	e.Generator = workload.NewGenerator(e.Registry, workload.GeneratorConfig{
		Seed:             scale.Seed + 2,
		Clients:          scale.Clients,
		BaseEventsPerDay: scale.BaseEventsPerDay,
	})
	return e, nil
}

// NewEnv builds a ready-to-run environment: NewNamespace plus one cluster.
func NewEnv(scale Scale, opts ...EnvOption) (*Env, error) {
	e, err := NewNamespace(scale, opts...)
	if err != nil {
		return nil, err
	}
	if e.Cluster, err = e.NewCluster(); err != nil {
		return nil, err
	}
	return e, nil
}

// NewCluster builds a resolver cluster over the environment's authority,
// sized by its Scale; the environment's WithResolverOptions and then opts
// apply after the scale's own.
func (e *Env) NewCluster(opts ...resolver.Option) (*resolver.Cluster, error) {
	s := e.Scale
	// Every resolver option ignores its zero value, so unset knobs keep the
	// resolver's defaults.
	all := append([]resolver.Option{
		resolver.WithServers(s.Servers),
		resolver.WithCacheSize(s.CacheSize),
		resolver.WithCachePolicy(s.CachePolicy),
		resolver.WithQueryLog(s.QueryLog),
	}, e.resolverOpts...)
	cluster, err := resolver.NewCluster(e.Authority, append(all, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("build cluster: %w", err)
	}
	return cluster, nil
}

// RunDay simulates one profile-calibrated day, returning a fresh per-day
// collector. The day is driven through the ingest runner (generator
// source, single window): resolution stops at the first error, and sinks
// that opts add with ingest.WithSinks observe after the day's collector.
func (e *Env) RunDay(p workload.Profile, opts ...ingest.Option) (*chrstat.Collector, error) {
	opts = append(opts, ingest.WithQueryLog(e.Scale.QueryLog))
	w, err := e.RunWindow(ingest.NewGeneratorSource(e.Generator, p), opts...)
	if err != nil {
		return nil, fmt.Errorf("day %s: %w", p.Label, err)
	}
	return w.Collector, nil
}

// RunWindow resolves src through the cluster as one observation window,
// however many days it spans, and returns that window.
func (e *Env) RunWindow(src ingest.QuerySource, opts ...ingest.Option) (ingest.Window, error) {
	var out ingest.Window
	opts = append(opts,
		ingest.WithSingleWindow(),
		ingest.OnWindow(func(w ingest.Window) error {
			out = w
			return nil
		}))
	err := ingest.NewRunner(e.Cluster, opts...).Run(src)
	return out, err
}

// TrainingLabels returns the labeled zones the classifier trains on: the
// namespace's ground truth for every disposable zone and trainingNegatives
// non-disposable ones.
func (e *Env) TrainingLabels() map[string]bool {
	return e.Registry.TrainingLabels(trainingNegatives)
}

// TrainingSet extracts the labeled group examples from one observation
// window (a collector's ByName view).
func (e *Env) TrainingSet(byName map[string][]*chrstat.RRStat, cfg core.TrainingConfig) []features.Example {
	return core.BuildTrainingSet(core.BuildTree(byName, e.Suffixes), byName, e.TrainingLabels(), cfg)
}

// Train fits the decision-tree classifier on the window's training set,
// returning the examples alongside for callers that report or
// cross-validate them.
func (e *Env) Train(byName map[string][]*chrstat.RRStat, cfg core.TrainingConfig) (*mlearn.DecisionTree, []features.Example, error) {
	examples := e.TrainingSet(byName, cfg)
	clf, err := core.TrainClassifier(examples, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("train: %w", err)
	}
	return clf, examples, nil
}
