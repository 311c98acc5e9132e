// Package fleet is the multi-PoP control plane: N resolver clusters
// (each the full resolver/ingest stack, optionally running the
// streaming miner) behind consistent-hash client steering, plus the
// observability layer that makes the fleet legible — a collector that
// periodically pulls each PoP's telemetry snapshot, qlog tail, and
// pDNS/hourly summaries and merges them into one fleet-wide view served
// over /fleet/* HTTP endpoints.
//
// All PoPs resolve against one shared authoritative namespace (the
// simulated Internet is global, the vantage points are not), so the
// dispatcher quiesces every PoP before the workload registry mutates at
// a day boundary — the same ErrPause contract the single-cluster ingest
// runner honors, widened to the whole fleet. Because the per-PoP pDNS
// stores and hourly counters merge exactly (pdns.MergeStores,
// chrstat.Absorb), an N-PoP run's global measurements reproduce a
// single-cluster run over the same stream bit for bit.
package fleet

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/alerts"
	"dnsnoise/internal/telemetry/tsdb"
)

// Steering selects the client-to-PoP mapping.
type Steering int

const (
	// SteeringHash is rendezvous (highest-random-weight) hashing: each
	// client scores every PoP and picks the max, so resizing the fleet
	// moves only the clients whose winner changed.
	SteeringHash Steering = iota
	// SteeringModulo is plain clientID % pops.
	SteeringModulo
)

// ParseSteering maps the CLI spelling to a Steering.
func ParseSteering(s string) (Steering, error) {
	switch s {
	case "hash", "rendezvous", "consistent":
		return SteeringHash, nil
	case "modulo", "mod":
		return SteeringModulo, nil
	}
	return 0, fmt.Errorf("fleet: unknown steering %q (hash or modulo)", s)
}

func (s Steering) String() string {
	if s == SteeringModulo {
		return "modulo"
	}
	return "hash"
}

// HourlySeries registers one named hourly-volume series on every PoP.
type HourlySeries struct {
	Name string
	Pred func(resolver.Observation) bool
}

// PdnsSeries registers one named per-day matcher on every PoP's store.
type PdnsSeries struct {
	Name string
	Pred func(*pdns.Record) bool
}

// Config sizes a fleet.
type Config struct {
	// Pops is the number of resolver clusters (default 3).
	Pops int
	// Steering picks the client-to-PoP mapping (default SteeringHash).
	Steering Steering
	// Scale sizes the shared authoritative namespace, the generator over
	// it (which a trace replay must build exactly as the recording did;
	// see sim.Source), and each PoP's cluster.
	Scale sim.Scale
	// Parallel resolves through each PoP's per-server worker goroutines.
	Parallel bool

	// HourlySeries/PdnsSeries add measurement series beyond the built-in
	// catch-all "all" hourly series.
	HourlySeries []HourlySeries
	PdnsSeries   []PdnsSeries

	// QlogSample head-samples 1 query in N per server (qlog default when
	// 0); QlogRing sizes each PoP's retained tail (default 4096). The
	// merged fleet tail retains Pops*QlogRing events.
	QlogSample int
	QlogRing   int

	// CollectEvery is the collector cadence (default 2s).
	CollectEvery time.Duration

	// TSDB enables the fleet time-series history: every collector sweep
	// records the merged snapshot (pop= labels intact) into a fixed-memory
	// ring served at /fleet/tsdb, and the alert rules are evaluated after
	// each sweep (/fleet/alerts) with transitions mirrored into the merged
	// qlog ring as ALERT events.
	TSDB bool
	// TSDBRetain is samples kept per series (tsdb.DefaultRetain when 0).
	TSDBRetain int
	// AlertRules overrides the evaluated rule set (alerts.DefaultRules
	// when nil; an empty non-nil slice disables alerting).
	AlertRules []alerts.Rule

	// NewScorer, when set, attaches a streaming miner to each PoP: its
	// pipeline consumes the PoP's observations, re-scores every
	// ScoreWindow of simulated time, and its live verdict snapshot stamps
	// the PoP's qlog events.
	NewScorer   func(pop int) (*core.StreamingPipeline, error)
	ScoreWindow time.Duration
}

// PoP is one resolver cluster plus its private observability stack.
type PoP struct {
	ID       int
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	Log      *qlog.Log
	Ring     *qlog.MemorySink
	Cluster  *resolver.Cluster
	Store    *pdns.Store
	Hourly   *chrstat.HourlyCounter
	Scorer   *core.StreamingPipeline
}

// Fleet is a running multi-PoP topology.
type Fleet struct {
	cfg       Config
	start     time.Time
	pops      []*PoP
	merged    *qlog.MemorySink
	hourlyAll []HourlySeries // "all" + cfg.HourlySeries, for merged rebuilds
	env       *sim.Env
	collector *Collector
	db        *tsdb.DB       // nil unless cfg.TSDB
	alerts    *alerts.Engine // nil unless cfg.TSDB
}

// New builds the fleet: the shared namespace and authority, one cluster
// per PoP with its own telemetry registry, tracer, qlog ring, pDNS
// store, and hourly counter, plus the (not yet started) collector.
func New(cfg Config) (*Fleet, error) {
	if cfg.Pops <= 0 {
		cfg.Pops = 3
	}
	if cfg.QlogRing <= 0 {
		cfg.QlogRing = 4096
	}
	if cfg.CollectEvery <= 0 {
		cfg.CollectEvery = 2 * time.Second
	}
	if cfg.NewScorer != nil && cfg.ScoreWindow <= 0 {
		return nil, fmt.Errorf("fleet: NewScorer needs a positive ScoreWindow")
	}
	env, err := sim.NewNamespace(cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	f := &Fleet{
		cfg:       cfg,
		start:     time.Now(),
		merged:    qlog.NewMemorySink(cfg.Pops * cfg.QlogRing),
		hourlyAll: append([]HourlySeries{{Name: "all", Pred: func(resolver.Observation) bool { return true }}}, cfg.HourlySeries...),
		env:       env,
	}
	for i := 0; i < cfg.Pops; i++ {
		p := &PoP{
			ID:       i,
			Registry: telemetry.NewRegistry(),
			Tracer:   telemetry.NewTracer(),
			Log:      qlog.New(qlog.Config{Sample: cfg.QlogSample}),
			Ring:     qlog.NewMemorySink(cfg.QlogRing),
			Store:    pdns.NewStore(),
			Hourly:   chrstat.NewHourlyCounter(),
		}
		if cfg.NewScorer != nil {
			if p.Scorer, err = cfg.NewScorer(i); err != nil {
				return nil, fmt.Errorf("fleet: pop %d scorer: %w", i, err)
			}
		}
		stamp := &popStamp{pop: int32(i), targets: []qlog.Sink{p.Ring, f.merged}}
		if p.Scorer != nil {
			sp := p.Scorer
			stamp.score = func(name string) qlog.Verdict { return scoreName(sp, name) }
		}
		p.Log.AddSink(stamp)
		p.Cluster, err = env.NewCluster(resolver.WithTelemetry(p.Registry), resolver.WithQueryLog(p.Log))
		if err != nil {
			return nil, fmt.Errorf("fleet: pop %d: %w", i, err)
		}
		p.Store.SetMetrics(p.Registry)
		for _, s := range cfg.PdnsSeries {
			p.Store.AddSeries(s.Name, s.Pred)
		}
		for _, s := range f.hourlyAll {
			p.Hourly.AddSeries(s.Name, s.Pred)
		}
		f.pops = append(f.pops, p)
	}
	if cfg.TSDB {
		f.db = tsdb.New(tsdb.Config{Retain: cfg.TSDBRetain})
		rules := cfg.AlertRules
		if rules == nil {
			rules = alerts.DefaultRules()
		}
		// Transitions land in the merged tail directly (there is no
		// fleet-level recorder to drain); Pop -1 marks them fleet-scoped.
		f.alerts = alerts.NewEngine(f.db, rules, alerts.WithEventMirror(func(ev qlog.Event) {
			ev.Pop = -1
			_ = f.merged.Consume([]qlog.Event{ev})
		}))
	}
	f.collector = newCollector(f, cfg.CollectEvery)
	return f, nil
}

// Env returns the shared world: the namespace and authority every PoP
// resolves against, and the generator over them — live workloads draw
// their stream from it, so the namespace answering the queries is the one
// minting them (its Cluster is nil; the PoPs own the clusters).
func (f *Fleet) Env() *sim.Env { return f.env }

// Pops returns the PoPs (shared slice; do not mutate).
func (f *Fleet) Pops() []*PoP { return f.pops }

// Collector returns the fleet's metrics collector.
func (f *Fleet) Collector() *Collector { return f.collector }

// MergedQlog returns the fleet-wide event ring (every PoP's sampled
// events, stamped with pop ids).
func (f *Fleet) MergedQlog() *qlog.MemorySink { return f.merged }

// TSDB returns the fleet's time-series store (nil unless Config.TSDB).
func (f *Fleet) TSDB() *tsdb.DB { return f.db }

// Alerts returns the fleet's alert engine (nil unless Config.TSDB).
func (f *Fleet) Alerts() *alerts.Engine { return f.alerts }

// Route returns the PoP a client steers to.
func (f *Fleet) Route(clientID uint32) int {
	if f.cfg.Steering == SteeringModulo {
		return int(clientID) % len(f.pops)
	}
	// Rendezvous hash: splitmix-style mix of (client, pop), argmax wins.
	best, bestScore := 0, uint64(0)
	for i := range f.pops {
		x := uint64(clientID)<<32 | uint64(i)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		if i == 0 || x > bestScore {
			best, bestScore = i, x
		}
	}
	return best
}

// MergedStore unions the per-PoP pDNS stores into the global rpDNS view
// (see pdns.MergeStores). Call with the fleet quiescent.
func (f *Fleet) MergedStore() *pdns.Store {
	stores := make([]*pdns.Store, len(f.pops))
	for i, p := range f.pops {
		stores[i] = p.Store
	}
	return pdns.MergeStores(stores...)
}

// MergedHourly folds the per-PoP hourly counters into one global
// counter with the same series. Call with the fleet quiescent.
func (f *Fleet) MergedHourly() *chrstat.HourlyCounter {
	global := chrstat.NewHourlyCounter()
	for _, s := range f.hourlyAll {
		global.AddSeries(s.Name, s.Pred)
	}
	for _, p := range f.pops {
		global.Absorb(p.Hourly)
	}
	return global
}

// dispatchItem is one unit on a PoP's intake channel: a query, or a
// barrier request (ack non-nil) asking the PoP to quiesce and signal.
type dispatchItem struct {
	q   resolver.Query
	ack chan<- struct{}
}

// popSource adapts a PoP's intake channel to ingest.QuerySource. A
// barrier item makes Next return ErrPause once; the ack fires on the
// NEXT Next call — by then the runner has honored the pause (drained
// its workers in parallel mode), so the dispatcher's wait-for-ack is a
// true fleet-wide quiesce point.
type popSource struct {
	ch  <-chan dispatchItem
	ack chan<- struct{}
}

func (s *popSource) Next() (resolver.Query, error) {
	if s.ack != nil {
		s.ack <- struct{}{}
		s.ack = nil
	}
	it, ok := <-s.ch
	if !ok {
		return resolver.Query{}, io.EOF
	}
	if it.ack != nil {
		s.ack = it.ack
		return resolver.Query{}, ingest.ErrPause
	}
	return it.q, nil
}

func (s *popSource) Close() error { return nil }

// runPoP drives one PoP's ingest runner over its intake channel. On
// error it keeps draining the channel (acking barriers) so the
// dispatcher never blocks on a dead PoP.
func (f *Fleet) runPoP(p *PoP, ch chan dispatchItem) error {
	opts := []ingest.Option{
		ingest.WithMetrics(p.Registry),
		ingest.WithTracer(p.Tracer),
		ingest.WithQueryLog(p.Log),
		ingest.WithSinks(ingest.TapSink(resolver.MultiTap(p.Hourly.Tap(), p.Store.Tap()), nil)),
	}
	if p.Scorer != nil {
		opts = append(opts, ingest.StreamingHooks(p.Scorer, f.cfg.ScoreWindow)...)
	}
	if f.cfg.Parallel {
		opts = append(opts, ingest.WithParallel())
	}
	src := &popSource{ch: ch}
	err := ingest.NewRunner(p.Cluster, opts...).Run(src)
	if err != nil {
		for it := range ch { // keep the dispatcher unblocked
			if it.ack != nil {
				it.ack <- struct{}{}
			}
		}
	}
	return err
}

// Run pulls the source dry, steering each query to its client's PoP.
// Day boundaries (and source ErrPause requests) quiesce every PoP
// before shared registry state may change; replayDay, when non-nil,
// then walks the registry into the new day's profile state (trace
// replays — live generator sources mutate the registry themselves under
// the same fleet-wide pause). Run owns the PoP runner goroutines; when
// it returns, the fleet is quiescent and every runner has exited.
func (f *Fleet) Run(src ingest.QuerySource, replayDay func(time.Time) error) error {
	chans := make([]chan dispatchItem, len(f.pops))
	errs := make([]error, len(f.pops))
	var wg sync.WaitGroup
	for i, p := range f.pops {
		ch := make(chan dispatchItem, 256)
		chans[i] = ch
		wg.Add(1)
		go func(i int, p *PoP, ch chan dispatchItem) {
			defer wg.Done()
			errs[i] = f.runPoP(p, ch)
		}(i, p, ch)
	}
	finish := func() {
		for _, ch := range chans {
			close(ch)
		}
		wg.Wait()
	}
	barrierAll := func() {
		ack := make(chan struct{}, len(chans))
		for _, ch := range chans {
			ch <- dispatchItem{ack: ack}
		}
		for range chans {
			<-ack
		}
	}
	var (
		curDay  time.Time
		started bool
	)
	for {
		q, err := src.Next()
		if err == ingest.ErrPause {
			// The source is about to mutate the shared registry (a live
			// generator starting its next day): quiesce the whole fleet.
			barrierAll()
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			finish()
			return err
		}
		if day := dayOf(q.Time); !started || !day.Equal(curDay) {
			if started || replayDay != nil {
				barrierAll()
			}
			if replayDay != nil {
				if err := replayDay(day); err != nil {
					finish()
					return err
				}
			}
			curDay, started = day, true
		}
		chans[f.Route(q.ClientID)] <- dispatchItem{q: q}
	}
	finish()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fleet: pop %d: %w", i, err)
		}
	}
	return nil
}

// dayOf returns UTC midnight of the query's day (mirrors ingest).
func dayOf(t time.Time) time.Time {
	u := t.UTC()
	return time.Date(u.Year(), u.Month(), u.Day(), 0, 0, 0, 0, time.UTC)
}

// popStamp is the per-PoP qlog sink: it stamps each drained batch with
// the PoP id (and, with a scorer attached, the verdict live when the batch
// is drained — the scorer publishes a window's snapshot when its mine ends,
// beside the next window's queries, not at a point in simulated time), then
// feeds the copies to the PoP's own ring and the fleet-wide merged ring. The
// incoming slice is the recorder's reused staging ring and other sinks
// observe it afterwards, so the stamp works on a private scratch copy.
type popStamp struct {
	pop     int32
	score   func(name string) qlog.Verdict
	targets []qlog.Sink
	scratch []qlog.Event
}

func (s *popStamp) Consume(events []qlog.Event) error {
	s.scratch = append(s.scratch[:0], events...)
	for i := range s.scratch {
		s.scratch[i].Pop = s.pop
		if s.score != nil && s.scratch[i].Verdict == qlog.VerdictNone {
			s.scratch[i].Verdict = s.score(s.scratch[i].Name)
		}
	}
	for _, t := range s.targets {
		if err := t.Consume(s.scratch); err != nil {
			return err
		}
	}
	return nil
}

func (s *popStamp) Flush() error {
	for _, t := range s.targets {
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// scoreName probes the streaming pipeline's live verdict snapshot with
// a dotted name: disposable when any proper ancestor zone is flagged
// for the name's depth (core.Matcher semantics; see also
// livescore.Scorer.ScoreWire, which does the same walk on wire format).
func scoreName(sp *core.StreamingPipeline, name string) qlog.Verdict {
	snap := sp.Snapshot()
	if snap == nil || name == "" {
		return qlog.VerdictBenign
	}
	depth := strings.Count(name, ".") + 1
	bit, ok := core.DepthBit(depth)
	if !ok {
		return qlog.VerdictBenign
	}
	for probe := name; ; {
		dot := strings.IndexByte(probe, '.')
		if dot < 0 {
			return qlog.VerdictBenign
		}
		probe = probe[dot+1:]
		if mask, hit := snap.LookupString(probe); hit && mask&bit != 0 {
			return qlog.VerdictDisposable
		}
	}
}
