package ingest

import (
	"context"
	"io"
	"log/slog"
	"time"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
)

// Window is one completed measurement window: a UTC day of the query
// stream (or the whole stream in single-window mode) with its own CHR
// collector.
type Window struct {
	// Date is UTC midnight of the window's day — in single-window mode,
	// of the first query's day (zero when the stream was empty).
	Date time.Time
	// Collector holds the window's black-box cache measurements, and
	// belongs to the OnWindow callbacks: nothing observes into it after
	// they are handed it. In parallel mode it is the per-server shards
	// folded into shard 0 by ShardedCollector.Merge, equal to what a
	// sequential run would collect; it holds on to every shard's slab
	// chunks.
	Collector *chrstat.Collector
	// Queries is the number of queries the window resolved.
	Queries int
}

// Runner drives a query stream through a resolver cluster, rotating
// measurement windows on UTC day boundaries without tearing the stream
// down: in parallel mode the rotation is a Stream.Barrier, so the
// per-server workers survive across days exactly as a production cluster
// would, while each day still gets a fresh collector.
//
// Run pulls queries from a QuerySource; a router (a fleet's, one runner
// per PoP) pushes them with Submit, Pause and Close instead. Either way one
// goroutine drives one per-query body, and the first error is sticky.
//
// Observation order matches the pre-ingest wiring: the window collector
// observes first, then the extra sinks in registration order.
type Runner struct {
	cluster    *resolver.Cluster
	parallel   bool
	single     bool
	sinks      []ObservationSink
	onWindow   []func(Window) error
	onDayStart func(time.Time) error

	// Intra-day tick hook (optional; see WithWindowTicks). nextTick is the
	// current day's next boundary in simulated time.
	tickEvery time.Duration
	onTick    func(Tick) error
	nextTick  time.Time

	// Query-level event log (optional; see WithQueryLog).
	qlg *qlog.Log

	// Telemetry (all optional; see WithMetrics/WithTracer/WithProgress).
	metrics  *telemetry.Registry
	tracer   *telemetry.Tracer
	progress *slog.Logger
	queries  *telemetry.Counter
	days     *telemetry.Counter
	pauses   *telemetry.Counter
	obsBelow telemetry.Counter // standalone: counted only when telemetry is on
	obsAbove telemetry.Counter
	countObs bool

	// Run state owned by the driving goroutine.
	stream      *resolver.Stream          // parallel mode, from the first Submit on
	col         *chrstat.Collector        // the open window's collector, sequentially
	shards      *chrstat.ShardedCollector // the open window's collector, in parallel
	colNames    int                       // the last window's name count, sequentially: the next window's size
	shardNames  []int                     // the same by shard, in parallel, counted before the fold
	winDate     time.Time
	curDay      time.Time
	started     bool
	count       int // queries in the open window
	dayCount    int // queries in the current day
	err         error
	closed      bool
	daySpan     *telemetry.Span
	resolveSpan *telemetry.Span
	dayWall     time.Time // wall-clock instant the current day opened
}

// Option configures a Runner.
type Option func(*Runner)

// WithParallel resolves through the cluster's per-server worker
// goroutines (one Stream for the whole run, started by its first query).
// Extra sinks must be safe for concurrent use.
func WithParallel() Option {
	return func(r *Runner) { r.parallel = true }
}

// WithSingleWindow disables day rotation: the whole stream accumulates
// into one window, emitted at the end even when the stream is empty. This
// is the mining CLIs' mode — they treat a trace as one dataset.
func WithSingleWindow() Option {
	return func(r *Runner) { r.single = true }
}

// WithSinks registers extra observation sinks that persist across
// windows (hourly counters, passive-DNS stores, fingerprint writers).
// They observe after the window collector; nils are dropped.
func WithSinks(sinks ...ObservationSink) Option {
	return func(r *Runner) {
		for _, s := range sinks {
			if s != nil {
				r.sinks = append(r.sinks, s)
			}
		}
	}
}

// OnWindow registers a per-window callback; registering more than once
// chains the callbacks in registration order, each seeing the same Window.
// A non-nil error aborts the run. The callbacks run on the caller's
// goroutine with the stream quiesced, so they may inspect any state the
// run touches.
func OnWindow(fn func(Window) error) Option {
	return func(r *Runner) {
		if fn != nil {
			r.onWindow = append(r.onWindow, fn)
		}
	}
}

// Tick is one intra-day window boundary crossed by the query stream's
// simulated clock (see WithWindowTicks).
type Tick struct {
	// Day is UTC midnight of the day the tick belongs to.
	Day time.Time
	// Time is the boundary instant: Day + N*every for some N >= 1.
	Time time.Time
	// Queries is how many of the day's queries resolved before the
	// boundary.
	Queries int
}

// WithWindowTicks fires fn at every `every` interval of simulated time
// within a day, driven by the query timestamps: when a query's timestamp
// crosses one or more boundaries, the hook fires once per elapsed boundary
// before that query is resolved. In parallel mode the stream is quiesced
// (Stream.Barrier) first, so the hook may safely mutate state the
// resolution path reads — this is the streaming miner's re-score cadence.
// The tick anchor resets at each day rotation; the day's trailing partial
// window is covered by the day-boundary hooks, not a tick. A non-positive
// interval or nil fn disables ticks.
func WithWindowTicks(every time.Duration, fn func(Tick) error) Option {
	return func(r *Runner) {
		if every > 0 && fn != nil {
			r.tickEvery = every
			r.onTick = fn
		}
	}
}

// OnDayStart registers a hook fired when the stream enters a new UTC day
// (including the first), before that day's first query is resolved — and,
// unlike window rotation, it fires even in single-window mode. In
// parallel mode the stream is quiesced first, so the hook may safely
// mutate state the resolution path reads; this is how trace replays walk
// the registry through the recording's per-day profile states (see
// ReplayProfiles).
func OnDayStart(fn func(time.Time) error) Option {
	return func(r *Runner) { r.onDayStart = fn }
}

// WithMetrics registers the runner's live counters with reg: queries
// submitted, day rotations, source pauses, and tapped observations per
// side. Without a registry the runner's hot path carries no counting at
// all.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(r *Runner) { r.metrics = reg }
}

// WithTracer records one span per simulated day, with prepare (day hook),
// resolve (query flow) and collect (window emit) children. The tracer's
// nesting stack is driven from the runner's goroutine only.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(r *Runner) { r.tracer = tr }
}

// WithProgress logs one structured line per completed simulated day:
// that day's query count and wall time plus the run's cumulative cache hit
// ratio (from the cluster's counters) and domain hit ratio (1 − above/below
// observations, the paper's eq. 1 over the whole run so far).
func WithProgress(l *slog.Logger) Option {
	return func(r *Runner) { r.progress = l }
}

// WithQueryLog stamps the log's day/window marker at each day rotation
// and flushes the cluster's query-log recorders at the day barrier, so
// sampled events carry the simulated day they belong to and sinks (the
// /debug/qlog ring, the -qlog file) never lag a full staging ring behind
// the day being measured. The cluster must have been built with
// resolver.WithQueryLog on the same log; a nil log is a no-op.
func WithQueryLog(l *qlog.Log) Option {
	return func(r *Runner) { r.qlg = l }
}

// NewRunner builds a runner over cluster.
func NewRunner(cluster *resolver.Cluster, opts ...Option) *Runner {
	r := &Runner{cluster: cluster}
	for _, o := range opts {
		o(r)
	}
	if r.metrics != nil {
		r.queries = r.metrics.Counter("ingest_queries_total",
			"Queries pulled from the source and resolved.")
		r.days = r.metrics.Counter("ingest_days_total",
			"Simulated UTC days completed.")
		r.pauses = r.metrics.Counter("ingest_pauses_total",
			"Source quiesce pauses honored.")
		r.metrics.CounterFunc(`ingest_observations_total{side="below"}`,
			"Answer records tapped below (server to client).", r.obsBelow.Value)
		r.metrics.CounterFunc(`ingest_observations_total{side="above"}`,
			"Answer records tapped above (authority to server).", r.obsAbove.Value)
	}
	r.countObs = r.metrics != nil || r.progress != nil
	return r
}

// errCheckInterval is how many of a day's parallel submissions pass between
// checks of the stream's error state: frequent enough to stop promptly,
// rare enough to stay off the hot path.
const errCheckInterval = 1024

// Run pulls the source dry through Submit, Pause and Close on the calling
// goroutine, emitting one Window per UTC day (or one in single-window
// mode). The workers are joined on every exit path; the source is left for
// the caller to close.
func (r *Runner) Run(src QuerySource) error {
	for {
		q, err := src.Next()
		switch err {
		case nil:
			err = r.Submit(q)
		case ErrPause:
			err = r.Pause()
		case io.EOF:
			return r.Close()
		}
		if err != nil {
			if r.err == nil {
				r.err = err // the source's: Close must emit nothing
			}
			r.Close()
			return err
		}
	}
}

// Submit resolves one query. The first query of a new UTC day first
// quiesces the stream, finishes the day, emits its window and starts the
// next; then come the intra-day ticks the query's timestamp crossed, and
// the resolve: Cluster.Resolve sequentially, the cluster's worker Stream
// (started by the first Submit) in parallel mode, where a resolution error
// surfaces within errCheckInterval submissions or at the next quiesce.
func (r *Runner) Submit(q resolver.Query) error {
	if r.err == nil {
		r.err = r.submit(q)
	}
	return r.err
}

func (r *Runner) submit(q resolver.Query) error {
	if day := dayOf(q.Time); !r.started || !day.Equal(r.curDay) {
		if err := r.rotate(day); err != nil {
			return err
		}
	}
	if err := r.checkTick(q.Time); err != nil {
		return err
	}
	if r.parallel {
		if r.stream == nil {
			r.stream = r.cluster.StartStream()
		}
		r.stream.Submit(q)
	} else if _, err := r.cluster.Resolve(q); err != nil {
		return err
	}
	r.count++
	r.dayCount++
	r.queries.Inc()
	if r.stream != nil && r.dayCount%errCheckInterval == 0 {
		return r.stream.Err()
	}
	return nil
}

// Pause quiesces the stream, so the caller may mutate state the resolution
// path reads: a source's ErrPause, a fleet's day boundary.
func (r *Runner) Pause() error {
	if r.err == nil {
		if r.err = r.quiesce(); r.err == nil {
			r.pauses.Inc()
		}
	}
	return r.err
}

// Close joins the workers, then emits the final window: the last day's, or
// in single-window mode the run's one window, even when nothing was
// submitted. After an error it only joins the workers. Close is idempotent.
func (r *Runner) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	if r.stream != nil {
		if err := r.stream.Close(); r.err == nil {
			r.err = err
		}
	}
	switch {
	case r.err != nil:
	case r.started:
		r.err = r.finishDay(true)
	case r.single:
		r.err = r.emit(Window{Collector: chrstat.NewCollector()})
	}
	return r.err
}

// quiesce waits out every in-flight resolution: a Stream.Barrier once the
// parallel stream runs; sequentially, or before the first query, nothing
// is in flight. Afterwards merging shards, running hooks and swapping taps
// are safe without tearing the workers down.
func (r *Runner) quiesce() error {
	if r.stream == nil {
		return nil
	}
	return r.stream.Barrier()
}

// rotate moves the run into day, quiesced: it finishes the current day,
// then opens the new day's span, runs the OnDayStart hook under a prepare
// child, opens the resolve child that stays open while the day's queries
// flow, and (unless single-window past the first day) a fresh window.
func (r *Runner) rotate(day time.Time) error {
	if r.started {
		if err := r.quiesce(); err != nil {
			return err
		}
		if err := r.finishDay(!r.single); err != nil {
			return err
		}
	}
	r.dayWall, r.nextTick = time.Now(), day.Add(r.tickEvery)
	r.qlg.SetDay(day) // quiesced here, so the stamp cannot tear a worker's emit
	r.daySpan = r.tracer.Start(day.Format("2006-01-02"))
	if r.onDayStart != nil {
		sp := r.tracer.Start("prepare")
		err := r.onDayStart(day)
		sp.End()
		if err != nil {
			return err
		}
	}
	r.resolveSpan = r.tracer.Start("resolve")
	if !r.started || !r.single {
		// A window's collector: per-server shards, folded into shard 0 at
		// emit, in parallel mode; sequentially one plain collector. Either
		// is sized from the last window, whose names the next mostly meets
		// again.
		r.winDate, r.count = day, 0
		if r.parallel {
			r.shards = chrstat.NewShardedCollectorSize(r.cluster.NumServers(), r.shardNames)
			r.installTaps(r.shards)
		} else {
			r.col = chrstat.NewCollectorSize(r.colNames)
			r.installTaps(r.col)
		}
	}
	r.curDay, r.started, r.dayCount = day, true, 0
	return nil
}

// finishDay ends the current day, quiesced: its resolve span, crediting
// the day's queries, the cluster's query-log recorders, the progress line,
// the window when emit holds, and the day span.
func (r *Runner) finishDay(emit bool) error {
	r.resolveSpan.AddItems(int64(r.dayCount))
	r.resolveSpan.End()
	r.cluster.FlushQueryLog()
	r.days.Inc()
	r.logDay()
	var err error
	if emit {
		w := Window{Date: r.winDate, Collector: r.col, Queries: r.count}
		if r.shards != nil {
			r.shardNames = r.shards.NumNames()
			w.Collector = r.shards.Merge()
		} else {
			r.colNames = r.col.NumNames()
		}
		err = r.emit(w)
	}
	r.daySpan.End()
	return err
}

// installTaps points the cluster's below/above taps at the window
// collector followed by the persistent sinks, counting observations per
// side when telemetry is enabled (the counters are atomic, so the parallel
// workers may share them).
func (r *Runner) installTaps(col ObservationSink) {
	below := func(ob resolver.Observation) {
		col.ObserveBelow(ob)
		for _, s := range r.sinks {
			s.ObserveBelow(ob)
		}
	}
	above := func(ob resolver.Observation) {
		col.ObserveAbove(ob)
		for _, s := range r.sinks {
			s.ObserveAbove(ob)
		}
	}
	if r.countObs {
		innerBelow, innerAbove := below, above
		below = func(ob resolver.Observation) {
			r.obsBelow.Inc()
			innerBelow(ob)
		}
		above = func(ob resolver.Observation) {
			r.obsAbove.Inc()
			innerAbove(ob)
		}
	}
	r.cluster.SetTaps(resolver.TapFunc(below), resolver.TapFunc(above))
}

// emit delivers a completed window to the callback chain under a collect
// span (a child of the still-open day span, when tracing).
func (r *Runner) emit(w Window) error {
	if len(r.onWindow) == 0 {
		return nil
	}
	sp := r.tracer.Start("collect")
	defer sp.End()
	for _, fn := range r.onWindow {
		if err := fn(w); err != nil {
			return err
		}
	}
	return nil
}

// logDay emits the per-day structured progress line with the run's
// cumulative hit ratios.
func (r *Runner) logDay() {
	if r.progress == nil {
		return
	}
	wall := time.Since(r.dayWall)
	qps := 0.0
	if s := wall.Seconds(); s > 0 {
		qps = float64(r.dayCount) / s
	}
	st := r.cluster.Stats()
	chr := 0.0
	if st.Queries > 0 {
		chr = float64(st.CacheHits) / float64(st.Queries)
	}
	below, above := r.obsBelow.Value(), r.obsAbove.Value()
	dhr := 0.0
	if below > 0 && above < below {
		dhr = 1 - float64(above)/float64(below)
	}
	r.progress.LogAttrs(context.Background(), slog.LevelInfo, "day complete",
		slog.String("day", r.curDay.Format("2006-01-02")),
		slog.Int("queries", r.dayCount),
		slog.Float64("wall_s", wall.Seconds()),
		slog.Float64("qps", qps),
		slog.Float64("chr", chr),
		slog.Float64("dhr", dhr),
		slog.Uint64("obs_below", below),
		slog.Uint64("obs_above", above),
	)
}

// checkTick fires the tick hook, quiesced, once per intra-day boundary the
// simulated clock has crossed. No-op without WithWindowTicks.
func (r *Runner) checkTick(t time.Time) error {
	if r.onTick == nil {
		return nil
	}
	for !t.Before(r.nextTick) {
		if err := r.quiesce(); err != nil {
			return err
		}
		if err := r.onTick(Tick{Day: r.curDay, Time: r.nextTick, Queries: r.dayCount}); err != nil {
			return err
		}
		r.nextTick = r.nextTick.Add(r.tickEvery)
	}
	return nil
}

// dayOf returns UTC midnight of the query's day.
func dayOf(t time.Time) time.Time {
	u := t.UTC()
	return time.Date(u.Year(), u.Month(), u.Day(), 0, 0, 0, 0, time.UTC)
}
