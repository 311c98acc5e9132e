package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/workload"
)

// The three simulation workloads share one shape: a generated namespace,
// its authority, a two-server resolver cluster, and an ingest.Runner
// pulling a multi-day query stream through it, one round per simulated
// day. simFixture is that shape; sim-day, replay-disposable and
// mine-stream each add their source, sinks and hooks to it.

// simServers is the cluster size: one resolver worker per vCPU.
const simServers = 2

// namespaceSeed fixes the simulated namespace for every run; -seed draws
// the traffic over it. Measured over ten seeds, a namespace per seed moved
// allocs_per_query by 2-4 % between runs of the same code (different zone
// mixes, different hit ratios), twenty times what the traffic seed alone
// does, and a bound wide enough for that would hide any real change.
const namespaceSeed = 1

// simSpec sizes one simulation workload.
type simSpec struct {
	zones, dispZones, hosts int // namespace
	clients, events         int // generator: population, base events per day
	profile                 func(time.Time) workload.Profile
	start                   time.Time
	cacheSize               int
	parallel                bool
}

// maxDays bounds a generated stream; no run gets near it.
const maxDays = 2000

// dayRecord is what one measured day contributes to the output digest.
type dayRecord struct {
	queries, hits, misses, nx uint64
	records                   int // distinct RRs the day's collector saw
}

type simFixture struct {
	spec    simSpec
	tr      *tracer
	log     io.Writer
	reg     *workload.Registry
	auth    *authority.Server
	up      *timedUpstream      // traced runs only
	metrics *telemetry.Registry // traced runs only: the cluster's own gauges
	cluster *resolver.Cluster
	gen     *workload.Generator
	gate    *dayGate
	timed   *timedSource // traced runs only
	src     ingest.QuerySource

	// base options ride on every Run; hooks only after warm-up.
	base, hooks []ingest.Option

	days       []dayRecord
	seen       resolver.Stats // cluster counters at the last day boundary
	phaseStart resolver.Stats // cluster counters when the measured phase began
	lastWindow ingest.Window  // traced runs only
	// tracedQueries is what the cluster resolved in the traced phase (and
	// the sequential pass), noted before the stand-alone passes add to it.
	tracedQueries uint64
}

func newSimFixture(spec simSpec, cfg config, tr *tracer) (*simFixture, error) {
	fx := &simFixture{spec: spec, tr: tr, log: cfg.log}
	fx.reg = workload.NewRegistry(workload.RegistryConfig{
		Seed:               namespaceSeed,
		NonDisposableZones: spec.zones,
		DisposableZones:    spec.dispZones,
		HostsPerZoneMax:    spec.hosts,
	})
	auth, err := fx.reg.BuildAuthority(nil, nil)
	if err != nil {
		return nil, fmt.Errorf("build authority: %w", err)
	}
	fx.auth = auth
	var upstream resolver.Upstream = auth
	opts := []resolver.Option{resolver.WithServers(simServers), resolver.WithCacheSize(spec.cacheSize)}
	if tr != nil {
		fx.up = &timedUpstream{inner: auth, tr: tr}
		upstream = fx.up
		fx.metrics = telemetry.NewRegistry()
		opts = append(opts, resolver.WithTelemetry(fx.metrics))
	}
	if fx.cluster, err = resolver.NewCluster(upstream, opts...); err != nil {
		return nil, err
	}
	// The generator seed mirrors the CLIs (-seed + 2).
	fx.gen = workload.NewGenerator(fx.reg, workload.GeneratorConfig{
		Seed:             cfg.seed + 2,
		Clients:          spec.clients,
		BaseEventsPerDay: spec.events,
	})
	return fx, nil
}

// profiles returns n consecutive days of the workload's calibration.
func (fx *simFixture) profiles(n int) []workload.Profile {
	out := make([]workload.Profile, n)
	for d := range out {
		out[d] = fx.spec.profile(fx.spec.start.AddDate(0, 0, d))
	}
	return out
}

// setSource puts the gate, and in a traced run the timed wrapper, around
// the workload's query stream.
func (fx *simFixture) setSource(inner ingest.QuerySource) {
	fx.gate = &dayGate{inner: inner}
	fx.src = fx.gate
	if fx.tr != nil {
		fx.timed = &timedSource{gate: fx.gate, tr: fx.tr, sequential: !fx.spec.parallel}
		fx.src = fx.timed
	}
}

// runDays pulls whole days through the cluster until stop holds at a day
// boundary, calling onDay last at every boundary.
func (fx *simFixture) runDays(parallel bool, stop func(daysDone int) bool, hooks []ingest.Option, onDay func(ingest.Window) error) error {
	fx.gate.begin(stop)
	opts := append(append([]ingest.Option{}, fx.base...), hooks...)
	if parallel {
		opts = append(opts, ingest.WithParallel())
	}
	opts = append(opts, ingest.OnWindow(onDay))
	return ingest.NewRunner(fx.cluster, opts...).Run(fx.src)
}

// warm runs the stream's first day and returns its window.
func (fx *simFixture) warm(hooks []ingest.Option) (ingest.Window, error) {
	var win ingest.Window
	err := fx.runDays(fx.spec.parallel, func(n int) bool { return n >= 1 }, hooks, func(w ingest.Window) error {
		win = w
		return nil
	})
	if err == nil && win.Queries == 0 {
		err = fmt.Errorf("warm-up day resolved no queries")
	}
	return win, err
}

func (fx *simFixture) run(m *meter) error {
	fx.days = fx.days[:0]
	fx.phaseStart = fx.cluster.Stats()
	fx.seen = fx.phaseStart
	return fx.runDays(fx.spec.parallel, m.expired, fx.hooks, func(w ingest.Window) error {
		fx.record(w)
		m.roundDone(w.Queries)
		return nil
	})
}

// record notes one finished day.
func (fx *simFixture) record(w ingest.Window) {
	st := fx.cluster.Stats()
	fx.days = append(fx.days, dayRecord{
		queries: st.Queries - fx.seen.Queries,
		hits:    st.CacheHits - fx.seen.CacheHits,
		misses:  st.CacheMisses - fx.seen.CacheMisses,
		nx:      st.NXDomains - fx.seen.NXDomains,
		records: w.Collector.NumRecords(),
	})
	fx.seen = st
	if fx.tr != nil {
		fx.lastWindow = w
	}
}

// phaseStats returns the cluster counters accumulated since run began.
func (fx *simFixture) phaseStats() resolver.Stats {
	st, from := fx.cluster.Stats(), fx.phaseStart
	st.Queries -= from.Queries
	st.CacheHits -= from.CacheHits
	st.CacheMisses -= from.CacheMisses
	st.UpstreamRTs -= from.UpstreamRTs
	st.NXDomains -= from.NXDomains
	st.NegCacheHits -= from.NegCacheHits
	st.WireBytesUp -= from.WireBytesUp
	st.UpstreamErrors -= from.UpstreamErrors
	st.ServFails -= from.ServFails
	return st
}

// verify checks what every simulation workload promises: the cluster
// resolved exactly the operations the meter counted, and none failed
// upstream. The digest folds the counted days' records and whatever extra
// per-day numbers the workload passes.
func (fx *simFixture) verify(m *meter, extra func(day int) []int) (failed int, digest uint64) {
	st := fx.phaseStats()
	if int(st.Queries) != m.ops {
		fmt.Fprintf(fx.log, "cluster resolved %d queries, the meter counted %d\n", st.Queries, m.ops)
		failed += max(m.ops-int(st.Queries), int(st.Queries)-m.ops)
	}
	if bad := int(st.UpstreamErrors + st.ServFails); bad > 0 {
		fmt.Fprintf(fx.log, "%d upstream errors, %d SERVFAILs\n", st.UpstreamErrors, st.ServFails)
		failed += bad
	}
	h := fnv.New64a()
	for d, rec := range fx.days[:m.countRounds] {
		fmt.Fprintf(h, "%d %d %d %d %d", rec.queries, rec.hits, rec.misses, rec.nx, rec.records)
		if extra != nil {
			fmt.Fprintf(h, " %v", extra(d))
		}
		fmt.Fprintln(h)
	}
	return failed, h.Sum64()
}

func (fx *simFixture) close() error { return fx.src.Close() }

// sequentialDay runs one more day of a parallel workload through a
// sequential runner, so that the traced source can bracket each sampled
// query's resolve step (see timedSource).
func (fx *simFixture) sequentialDay() error {
	fx.timed.sequential = true
	return fx.runDays(false, func(n int) bool { return n >= 1 }, fx.hooks, func(w ingest.Window) error {
		fx.tr.abandonQuery()
		fx.lastWindow = w
		return nil
	})
}

// layers stores the per-layer numbers every simulation workload has: the
// per-query costs from the sequential resolve spans, the cluster's and the
// caches' counters over the traced phase, and the stand-alone passes.
func (fx *simFixture) layers(out map[string]float64) error {
	if fx.spec.parallel {
		if err := fx.sequentialDay(); err != nil {
			return fmt.Errorf("sequential pass: %w", err)
		}
	}
	fx.resolveSpans(out)
	fx.counters(out)
	if mean, n := fx.tr.meanNs("upstream"); n > 0 {
		out["authority.handle_ns"] = mean
	}
	out["chrstat.records"] = float64(fx.lastWindow.Collector.NumRecords())

	sample, err := fx.drawQueries(passQueries)
	if err != nil {
		return err
	}
	fx.cachePass(out, sample)
	fx.chrstatPass(out, sample)
	dnsmsgPass(fx.tr, out, fx.up.wires)
	// Last, because starting a day on the fixture's generator ends the
	// stream the passes above drew from.
	day := fx.gen.StartDay(fx.spec.profile(fx.spec.start.AddDate(0, 0, maxDays)))
	n := day.Remaining()
	out["workload.next_ns"] = fx.tr.pass("pass.workload.next", n, func() {
		for {
			if _, ok := day.Next(); !ok {
				return
			}
		}
	})
	return nil
}

// resolveSpans turns the sequential pass's sampled query spans into the
// per-query layer costs. A resolve span with an upstream child is a miss;
// sink time is reported on its own, so both resolver figures exclude it.
func (fx *simFixture) resolveSpans(out map[string]float64) {
	sinkTime := fx.tr.childTime(func(name string) bool { return strings.HasPrefix(name, "sink.") })
	upTime := fx.tr.childTime(func(name string) bool { return name == "upstream" })
	var hit, miss, missSelf, sink float64
	var hits, misses int
	for _, s := range fx.tr.byName("resolve") {
		own := s.dur() - sinkTime[s.ID]
		sink += sinkTime[s.ID]
		if up, ok := upTime[s.ID]; ok {
			miss += own
			missSelf += own - up
			misses++
		} else {
			hit += own
			hits++
		}
	}
	if hits > 0 {
		out["resolver.hit_ns"] = hit / float64(hits)
	}
	if misses > 0 {
		out["resolver.miss_ns"] = miss / float64(misses)
		out["resolver.miss_self_ns"] = missSelf / float64(misses)
	}
	if n := hits + misses; n > 0 {
		out["ingest.sink_ns"] = sink / float64(n)
	}
	out["ingest.source_ns"], _ = fx.tr.meanNs("source")
}

// counters stores the ratios the cluster and its caches counted over the
// traced measured phase.
func (fx *simFixture) counters(out map[string]float64) {
	st := fx.phaseStats()
	fx.tracedQueries = st.Queries
	q := float64(st.Queries)
	out["resolver.hit_ratio"] = float64(st.CacheHits) / q
	out["resolver.neghit_ratio"] = float64(st.NegCacheHits) / q
	out["resolver.upstream_rt_per_query"] = float64(st.UpstreamRTs) / q
	out["resolver.wire_bytes_per_query"] = float64(st.WireBytesUp) / q
	out["authority.calls_per_query"] = float64(st.UpstreamRTs) / q

	// Cache counters run from the fixture's birth, warm-up included; the
	// cluster offers no earlier snapshot to subtract.
	total := float64(fx.cluster.Stats().Queries)
	var evictions, reclaims, premature uint64
	for _, cs := range fx.cluster.CacheStats() {
		evictions += cs.Evictions
		reclaims += cs.Reclaims
		for _, row := range cs.PrematureEvictions {
			premature += row[0] + row[1]
		}
	}
	out["cache.evictions_per_query"] = float64(evictions) / total
	out["cache.reclaims_per_query"] = float64(reclaims) / total
	if evictions+reclaims > 0 {
		out["cache.premature_ratio"] = float64(premature) / float64(evictions+reclaims)
	}
	snap := fx.metrics.Snapshot()
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "resolver_cache_entries_by_state") && strings.Contains(name, `state="live"`) {
			out["cache.live_entries"] += v
		}
	}
}

// drawQueries takes the next n queries of the fixture's stream.
func (fx *simFixture) drawQueries(n int) ([]resolver.Query, error) {
	fx.gate.begin(func(int) bool { return false })
	out := make([]resolver.Query, 0, n)
	for len(out) < n {
		q, err := fx.gate.Next()
		if err == ingest.ErrPause {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("draw pass queries: %w", err)
		}
		out = append(out, q)
	}
	return out, nil
}
