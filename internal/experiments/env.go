// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the index). Each experiment returns a
// typed result with a Render method that prints the same rows or series
// the paper reports.
//
// All experiments run on the same substrate, built by internal/sim: a
// simulated namespace, its authoritative server, a recursive resolver
// cluster, and a traffic generator — scaled by a sim.Scale so that tests
// and benches run in milliseconds while the CLI reproduces full-size runs.
//
// Experiments that read a dataset others read too are methods of a Run,
// which simulates each such dataset once, as it does each Section VI
// world (a December day under another cache, disposable share or signer).
// An experiment whose world is its alone (another start date, seed or
// traffic ramp) is a function of the scale and simulates its own.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dnsnoise/internal/baseline"
	"dnsnoise/internal/cache"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/workload"
)

// Run is one reproduction at one scale. It simulates each dataset that
// several experiments read at most once, on first use, and hands every
// reader the same copy; readers only read it, so concurrent experiments
// may share a Run.
type Run struct {
	scale     sim.Scale
	refDay    func() (*refDay, error)
	bootstrap func() (*bootstrap, error)
	growth    func() (*GrowthResult, error)
	fig3      func() (*Fig3Result, error)

	mu     sync.Mutex
	worlds map[world]func() (counters, error)
}

// NewRun returns a run at scale whose pDNS bootstrap (Figures 5 and 15)
// spans bootstrapDays December days.
func NewRun(scale sim.Scale, bootstrapDays int) *Run {
	return &Run{
		scale:     scale,
		refDay:    sync.OnceValues(func() (*refDay, error) { return newRefDay(scale) }),
		bootstrap: sync.OnceValues(func() (*bootstrap, error) { return newBootstrap(scale, bootstrapDays) }),
		growth:    sync.OnceValues(func() (*GrowthResult, error) { return growthStudy(scale) }),
		fig3:      sync.OnceValues(func() (*Fig3Result, error) { return fig3LongTail(scale) }),
		worlds:    map[world]func() (counters, error){},
	}
}

// Scale returns the scale the run simulates at.
func (r *Run) Scale() sim.Scale { return r.scale }

// refDay is the reference day: a fresh world's December day at dateAt(0),
// the day every single-day measurement of the miner and its rivals reads.
type refDay struct {
	env       *sim.Env
	label     string
	servers   int // the cluster's server count
	stats     resolver.Stats
	taxonomy  baseline.TaxonomyCounter // the day's below-traffic, by treetop class
	collector *chrstat.Collector
	byName    map[string][]*chrstat.RRStat
	// findings are the day's mined zones (trainAndMine), on first use.
	findings func() ([]core.Finding, error)
}

func newRefDay(scale sim.Scale) (*refDay, error) {
	env, err := sim.NewEnv(scale)
	if err != nil {
		return nil, err
	}
	p := workload.DecemberProfile(dateAt(0))
	d := &refDay{env: env, label: p.Label, servers: env.Cluster.NumServers()}
	if d.collector, err = env.RunDay(p, ingest.WithSinks(ingest.TapSink(d.taxonomy.Tap(), nil))); err != nil {
		return nil, err
	}
	d.stats, d.byName = env.Cluster.Stats(), d.collector.ByName()
	keepNamespace(env)
	d.findings = sync.OnceValues(func() ([]core.Finding, error) { return trainAndMine(env, d.byName) })
	return d, nil
}

// bootstrap is the paper's rpDNS bootstrap (11/28-12/10 over 13 days): a
// fresh world's consecutive December days with Google's measurement
// experiment ramping up, one pDNS store over all of them with the akamai
// and google new-RR series, and the last day's collector.
type bootstrap struct {
	env   *sim.Env
	store *pdns.Store
	last  *chrstat.Collector
}

func newBootstrap(scale sim.Scale, days int) (*bootstrap, error) {
	env, err := sim.NewEnv(scale)
	if err != nil {
		return nil, err
	}
	b := &bootstrap{env: env, store: pdns.NewStore()}
	// PerSeries[0] counts Akamai's records, PerSeries[1] Google's.
	b.store.AddSeries(func(rec *pdns.Record) bool { return AkamaiNames(rec.Name) })
	b.store.AddSeries(func(rec *pdns.Record) bool { return GoogleNames(rec.Name) })

	profiles := make([]workload.Profile, days)
	for d := range profiles {
		p := workload.DecemberProfile(dateAt(d))
		// Google's ipv6 experiment grew ~25% across the window (Figure 5);
		// ramp the measurement boost linearly.
		p.MeasurementBoost *= 1 + 0.35*float64(d)/float64(max(days-1, 1))
		profiles[d] = p
	}
	// The store does its own day bucketing from observation timestamps, so
	// it rides the whole rotating stream as a persistent sink; each day's
	// window replaces the last.
	runner := ingest.NewRunner(env.Cluster,
		ingest.WithQueryLog(scale.QueryLog),
		ingest.WithSinks(ingest.TapSink(b.store.Tap(), nil)),
		ingest.OnWindow(func(w ingest.Window) error {
			b.last = w.Collector
			return nil
		}),
	)
	if err := runner.Run(ingest.NewGeneratorSource(env.Generator, profiles...)); err != nil {
		return nil, err
	}
	keepNamespace(env)
	return b, nil
}

// world is one December day of a fresh world that differs from the
// reference world in its scale's cache, its disposable share or its
// signer: a Section VI measurement or the cache ablation.
type world struct {
	scale sim.Scale
	day   int // offset from dateAt(0)
	// share is the disposable share of the day's volume; negative keeps
	// the profile's own.
	share  float64
	signed bool // disposable zones signed, every resolver validating
}

// counters are what a world's day leaves to read.
type counters struct {
	stats      resolver.Stats
	caches     []cache.Stats
	signatures uint64 // the authority's RRSIGs
}

// simulate resolves the world's day on a fresh cluster built with opts.
func (w world) simulate(opts ...resolver.Option) (counters, error) {
	var envOpts []sim.EnvOption
	if w.signed {
		envOpts = append(envOpts, sim.WithSignedDisposableZones())
		opts = append(opts, resolver.WithValidation())
	}
	env, err := sim.NewEnv(w.scale, append(envOpts, sim.WithResolverOptions(opts...))...)
	if err != nil {
		return counters{}, err
	}
	p := workload.DecemberProfile(dateAt(w.day))
	if w.share >= 0 {
		p.DisposableFrac = w.share
	}
	if _, err := env.RunDay(p); err != nil {
		return counters{}, err
	}
	return counters{env.Cluster.Stats(), env.Cluster.CacheStats(), env.Authority.Stats().Signatures}, nil
}

// premature sums the caches' premature evictions of victim entries by
// inserter inserts.
func (c counters) premature(victim, inserter cache.Category) uint64 {
	var n uint64
	for _, cs := range c.caches {
		n += cs.PrematureEvictions[victim][inserter]
	}
	return n
}

// counters returns w's counters, simulating w on its first read in the run.
func (r *Run) counters(w world) (counters, error) {
	r.mu.Lock()
	read, ok := r.worlds[w]
	if !ok {
		read = sync.OnceValues(func() (counters, error) { return w.simulate() })
		r.worlds[w] = read
	}
	r.mu.Unlock()
	return read()
}

// keepNamespace drops what a dataset's readers never use once its days are
// resolved: the cluster, whose caches are the larger half of a day's
// memory, the authority and the generator. Readers label, train and mine,
// which needs only the registry and the suffixes.
func keepNamespace(env *sim.Env) {
	env.Cluster, env.Authority, env.Generator = nil, nil, nil
}

// trainAndMine trains the classifier on one day's labeled zones and mines
// that same day at the paper's conservative θ = 0.9.
func trainAndMine(env *sim.Env, byName map[string][]*chrstat.RRStat) ([]core.Finding, error) {
	_, findings, err := env.MineWindow(byName, 0.9, "", nil)
	return findings, err
}

// GoogleNames matches names under google.com.
func GoogleNames(name string) bool {
	return dnsname.IsSubdomainOf(name, "google.com")
}

// AkamaiNames matches names under the registry's CDN zones (the paper's
// Akamai footnote lists eight 2LDs; the registry mirrors that set).
func AkamaiNames(name string) bool {
	for _, zone := range []string{
		"akamai.net", "akamaiedge.net", "akamaihd.net", "edgesuite.net",
		"akadns.net", "cloudshard.net",
	} {
		if dnsname.IsSubdomainOf(name, zone) {
			return true
		}
	}
	return false
}

// renderTable formats rows with aligned columns for terminal output.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// dateAt returns midnight UTC of 2011-11-28 plus day offset, anchoring the
// multi-day December experiments (offset 0 is the first day of the paper's
// 13-day rpDNS bootstrap).
func dateAt(offset int) time.Time {
	return time.Date(2011, 11, 28, 0, 0, 0, 0, time.UTC).AddDate(0, 0, offset)
}
