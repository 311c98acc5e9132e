// Package fleet runs N resolver clusters (each the full resolver/ingest
// stack, optionally running the streaming miner) behind consistent-hash
// client steering: each PoP is an ingest.Runner fed by one router.
//
// All PoPs resolve against one shared authoritative namespace (the
// simulated Internet is global, the vantage points are not), so the
// router pauses every PoP before the workload registry mutates at a day
// boundary — the same ErrPause contract the single-cluster ingest
// runner honors, widened to the whole fleet. Because the per-PoP pDNS
// stores merge exactly (pdns.MergeStores), an N-PoP run's global rpDNS
// view reproduces a single-cluster run over the same stream bit for bit.
//
// A fleet is observed through the command's one sim.Obs session: every
// PoP registers its instruments through a pop="N" view of the session's
// registry, records its ingest spans under a pop-N span, and forwards its
// sampled query events, stamped with the PoP (and the live verdict under a
// scorer), into the session's query log.
package fleet

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/telemetry"
)

// Config sizes a fleet.
type Config struct {
	// Pops is the number of resolver clusters (default 3).
	Pops int
	// Scale sizes the shared authoritative namespace, the generator over
	// it (which a trace replay must build exactly as the recording did;
	// see sim.Source), and each PoP's cluster.
	Scale sim.Scale
	// Parallel resolves through each PoP's per-server worker goroutines.
	Parallel bool
	// Obs, when set, is the started observability session the PoPs report
	// through: its registry (one pop= view per PoP), tracer (one pop-N span
	// per PoP) and query log (sampled at its -qlog-sample rate per server).
	// Nil observes nothing.
	Obs *sim.Obs

	// NewScorer, when set, attaches a streaming miner to each PoP: its
	// pipeline consumes the PoP's observations, re-scores every
	// ScoreWindow of simulated time, and its live verdict snapshot stamps
	// the PoP's qlog events.
	NewScorer   func(pop int) (*core.StreamingPipeline, error)
	ScoreWindow time.Duration
}

// PoP is one resolver cluster and its pDNS store.
type PoP struct {
	ID      int
	Cluster *resolver.Cluster
	Store   *pdns.Store
	Scorer  *core.StreamingPipeline

	reg *telemetry.Registry // the session registry's pop="ID" view
	log *qlog.Log           // the PoP's recorders; nil without a session log
}

// Fleet is a running multi-PoP topology.
type Fleet struct {
	cfg    Config
	pops   []*PoP
	env    *sim.Env
	tracer *telemetry.Tracer // the session's; nil when not observed
}

// New builds the fleet: the shared namespace and authority, and one
// cluster and pDNS store per PoP, registered on the session's registry
// under the PoP's pop= label.
func New(cfg Config) (*Fleet, error) {
	if cfg.Pops <= 0 {
		cfg.Pops = 3
	}
	if cfg.NewScorer != nil && cfg.ScoreWindow <= 0 {
		return nil, fmt.Errorf("fleet: NewScorer needs a positive ScoreWindow")
	}
	env, err := sim.NewNamespace(cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	f := &Fleet{cfg: cfg, env: env}
	var (
		reg    *telemetry.Registry
		out    *qlog.Log
		sample int
	)
	if o := cfg.Obs; o != nil {
		reg, f.tracer, out, sample = o.Registry, o.Tracer, o.Log(), o.QlogSample
	}
	for i := 0; i < cfg.Pops; i++ {
		p := &PoP{ID: i, Store: pdns.NewStore(), reg: reg.WithLabel("pop", strconv.Itoa(i))}
		if cfg.NewScorer != nil {
			if p.Scorer, err = cfg.NewScorer(i); err != nil {
				return nil, fmt.Errorf("fleet: pop %d scorer: %w", i, err)
			}
		}
		if out != nil {
			p.log = qlog.New(qlog.Config{Sample: sample})
			p.log.AddSink(&popStamp{pop: int32(i), scorer: p.Scorer, out: out})
		}
		p.Cluster, err = env.NewCluster(resolver.WithTelemetry(p.reg), resolver.WithQueryLog(p.log))
		if err != nil {
			return nil, fmt.Errorf("fleet: pop %d: %w", i, err)
		}
		p.Store.SetMetrics(p.reg)
		f.pops = append(f.pops, p)
	}
	return f, nil
}

// Env returns the shared world: the namespace and authority every PoP
// resolves against, and the generator over them — live workloads draw
// their stream from it, so the namespace answering the queries is the one
// minting them (its Cluster is nil; the PoPs own the clusters).
func (f *Fleet) Env() *sim.Env { return f.env }

// Pops returns the PoPs (shared slice; do not mutate).
func (f *Fleet) Pops() []*PoP { return f.pops }

// Route returns the PoP a client steers to by rendezvous
// (highest-random-weight) hashing: each client scores every PoP and picks
// the max, so resizing the fleet moves only the clients whose winner
// changed.
func (f *Fleet) Route(clientID uint32) int {
	// Splitmix-style mix of (client, pop), argmax wins.
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

// Run pulls the source dry on the caller's goroutine: the one router,
// feeding each query to its client's PoP. A source's ErrPause (a live
// generator about to start its next day on the shared registry) pauses
// every PoP; so does a new day when replayDay is set, which then walks the
// registry into that day's profile state (trace replays). When Run
// returns, every PoP's runner is closed and no resolver worker is left.
func (f *Fleet) Run(src ingest.QuerySource, replayDay func(time.Time) error) error {
	runners := make([]*ingest.Runner, len(f.pops))
	for i, p := range f.pops {
		span := f.tracer.StartRoot(fmt.Sprintf("pop-%d", p.ID))
		defer span.End() // after every runner's Close
		opts := []ingest.Option{
			ingest.WithMetrics(p.reg),
			ingest.WithTracer(span.Tracer()),
			ingest.WithQueryLog(p.log),
			ingest.WithSinks(ingest.TapSink(p.Store.Tap(), nil)),
		}
		if p.Scorer != nil {
			opts = append(opts, ingest.StreamingHooks(p.Scorer, f.cfg.ScoreWindow)...)
		}
		if f.cfg.Parallel {
			opts = append(opts, ingest.WithParallel())
		}
		runners[i] = ingest.NewRunner(p.Cluster, opts...)
	}
	err := f.route(src, runners, replayDay)
	for i, r := range runners {
		if cerr := r.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("fleet: pop %d: %w", i, cerr)
		}
	}
	return err
}

// route is Run's loop.
func (f *Fleet) route(src ingest.QuerySource, runners []*ingest.Runner, replayDay func(time.Time) error) error {
	pauseAll := func() error {
		for i, r := range runners {
			if err := r.Pause(); err != nil {
				return fmt.Errorf("fleet: pop %d: %w", i, err)
			}
		}
		return nil
	}
	var day time.Time // UTC midnight of the day replayed last
	for {
		q, err := src.Next()
		switch {
		case err == io.EOF:
			return nil
		case err == ingest.ErrPause:
			if err := pauseAll(); err != nil {
				return err
			}
			continue
		case err != nil:
			return err
		}
		// A runner quiesces itself at its day rotation; only a replay needs all.
		if d := q.Time.UTC().Truncate(24 * time.Hour); replayDay != nil && !d.Equal(day) {
			if err := pauseAll(); err != nil {
				return err
			}
			if err := replayDay(d); err != nil {
				return err
			}
			day = d
		}
		i := f.Route(q.ClientID)
		if err := runners[i].Submit(q); err != nil {
			return fmt.Errorf("fleet: pop %d: %w", i, err)
		}
	}
}

// popStamp is the per-PoP qlog sink: it stamps each drained event with
// the PoP id (and, with a scorer attached, the verdict live when the batch
// is drained — the scorer publishes a window's snapshot when its mine ends,
// beside the next window's queries, not at a point in simulated time), then
// hands it to the session log, which numbers it among every PoP's events
// and feeds its own sinks (the -qlog file, /debug/qlog, the exemplars).
type popStamp struct {
	pop    int32
	scorer *core.StreamingPipeline // nil without -score
	out    *qlog.Log
}

func (s *popStamp) Consume(events []qlog.Event) error {
	for _, ev := range events {
		ev.Pop = s.pop
		if s.scorer != nil && ev.Verdict == qlog.VerdictNone {
			ev.Verdict = scoreName(s.scorer, ev.Name)
		}
		s.out.EmitNow(ev)
	}
	return nil
}

// Flush has nothing to do: the session log flushes its own sinks.
func (s *popStamp) Flush() error { return nil }

// scoreName probes the streaming pipeline's live verdict snapshot with
// a dotted name, as livescore.Scorer.ScoreWire probes it with a wire name.
func scoreName(sp *core.StreamingPipeline, name string) qlog.Verdict {
	if core.Flagged(sp.Snapshot(), name) {
		return qlog.VerdictDisposable
	}
	return qlog.VerdictBenign
}
