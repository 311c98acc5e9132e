package main

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dnsnoise/internal/ingest"
	"dnsnoise/internal/resolver"
)

// This file holds the benchmark-owned wrappers around the seams the
// simulation workloads cross: the query source, the observation sinks and
// the resolver's upstream. dayGate is part of every run; the timed
// wrappers exist only in a traced run.

// dayGate cuts an endless multi-day query stream into runner-sized pieces.
// ingest.Runner drains its source to io.EOF, so the gate reports io.EOF at
// the first day boundary where stop holds and keeps the boundary's query
// for the next Run: a warm-up Run and the measured Run continue one
// stream, and no Run ends on a one-query stub day.
type dayGate struct {
	inner ingest.QuerySource
	stop  func(daysDone int) bool

	pending    resolver.Query
	hasPending bool
	day        int64 // unix day of the last query handed out
	started    bool
	done       int // days completed since begin
}

// begin arms the gate for one Run.
func (g *dayGate) begin(stop func(daysDone int) bool) {
	g.stop = stop
	g.done = 0
}

func (g *dayGate) Next() (resolver.Query, error) {
	if g.hasPending {
		g.hasPending = false
		return g.pending, nil
	}
	q, err := g.inner.Next()
	if err != nil {
		return q, err // ingest.ErrPause and io.EOF pass through
	}
	// Simulated days are UTC days after 1970, so integer division names
	// the day ingest.Runner rotates on without building a time.Time.
	day := q.Time.Unix() / 86400
	if g.started && day != g.day {
		g.day = day
		g.done++
		if g.stop(g.done) {
			g.pending, g.hasPending = q, true
			return resolver.Query{}, io.EOF
		}
	}
	g.day, g.started = day, true
	return q, nil
}

func (g *dayGate) Close() error { return g.inner.Close() }

// timedSource times one source call in sampleEvery. Under a sequential
// runner it also opens the sampled query's resolve span, which the next
// call closes: the runner does nothing between two source calls but
// resolve the query and feed the sinks, so the gap is the resolve step.
// The timed upstream and sinks file their spans under it.
type timedSource struct {
	gate       *dayGate
	tr         *tracer
	sequential bool
	calls      uint64
}

func (s *timedSource) Next() (resolver.Query, error) {
	if s.tr.query.Load() != 0 {
		s.tr.endQuery(time.Now())
	}
	s.calls++
	if s.calls%sampleEvery != 0 {
		return s.gate.Next()
	}
	start := time.Now()
	q, err := s.gate.Next()
	end := time.Now()
	if err != nil {
		return q, err // a pause or the end of the Run, not a query
	}
	if s.sequential {
		s.tr.beginQuery(start, end)
	} else {
		s.tr.add("source", s.tr.round.Load(), start, end)
	}
	return q, nil
}

func (s *timedSource) Close() error { return s.gate.Close() }

// beginQuery opens a sampled query: a query span holding the finished
// source span and an open resolve span. The resolve span starts at a
// clock read of its own, so that the bookkeeping before it is in the query
// span and not in the resolver's time.
func (t *tracer) beginQuery(sourceStart, sourceEnd time.Time) {
	t.querySpan = t.open("query", t.round.Load(), sourceStart)
	t.add("source", t.querySpan, sourceStart, sourceEnd)
	t.query.Store(t.open("resolve", t.querySpan, time.Now()))
}

// endQuery closes the open sampled query.
func (t *tracer) endQuery(at time.Time) {
	id := t.query.Swap(0)
	t.close(id, at)
	t.close(t.querySpan, at)
}

// abandonQuery drops the open sampled query: a day or window hook is about
// to run on the runner's goroutine, and its time is not the resolver's.
func (t *tracer) abandonQuery() {
	if id := t.query.Load(); id != 0 {
		t.query.Store(0)
		t.mu.Lock()
		t.spans[id-1].Name = "resolve.abandoned"
		t.spans[t.querySpan-1].Name = "query.abandoned"
		t.mu.Unlock()
	}
}

// sampledParent decides whether a worker-side wrapper times this call:
// always inside an open sampled query (as its child), otherwise one call
// in sampleEvery (as a child of the round).
func (t *tracer) sampledParent(calls *atomic.Uint64) (parent int32, ok bool) {
	n := calls.Add(1)
	if id := t.query.Load(); id != 0 {
		return id, true
	}
	if n%sampleEvery == 0 {
		return t.round.Load(), true
	}
	return 0, false
}

// maxWires bounds the response wires a traced upstream keeps for the
// dnsmsg pass.
const maxWires = 4096

// timedUpstream is the resolver's view of the authority in a traced run.
type timedUpstream struct {
	inner resolver.Upstream
	tr    *tracer
	calls atomic.Uint64

	mu    sync.Mutex
	wires [][]byte // copies of sampled responses
}

func (u *timedUpstream) HandleWire(query []byte) ([]byte, error) {
	parent, ok := u.tr.sampledParent(&u.calls)
	if !ok {
		return u.inner.HandleWire(query)
	}
	start := time.Now()
	resp, err := u.inner.HandleWire(query)
	u.tr.add("upstream", parent, start, time.Now())
	if err == nil {
		u.mu.Lock()
		if len(u.wires) < maxWires {
			u.wires = append(u.wires, append([]byte(nil), resp...))
		}
		u.mu.Unlock()
	}
	return resp, err
}

// timedSink is an observation sink in a traced run.
type timedSink struct {
	inner ingest.ObservationSink
	tr    *tracer
	name  string
	calls atomic.Uint64
}

// wrapSink returns sink itself in an end-to-end run.
func wrapSink(tr *tracer, name string, sink ingest.ObservationSink) ingest.ObservationSink {
	if tr == nil {
		return sink
	}
	return &timedSink{inner: sink, tr: tr, name: name}
}

func (s *timedSink) ObserveBelow(ob resolver.Observation) {
	parent, ok := s.tr.sampledParent(&s.calls)
	if !ok {
		s.inner.ObserveBelow(ob)
		return
	}
	start := time.Now()
	s.inner.ObserveBelow(ob)
	s.tr.add(s.name, parent, start, time.Now())
}

func (s *timedSink) ObserveAbove(ob resolver.Observation) {
	parent, ok := s.tr.sampledParent(&s.calls)
	if !ok {
		s.inner.ObserveAbove(ob)
		return
	}
	start := time.Now()
	s.inner.ObserveAbove(ob)
	s.tr.add(s.name, parent, start, time.Now())
}

// wrapHook returns fn itself in an end-to-end run, and fn inside a span
// called name in a traced one.
func wrapHook[T any](tr *tracer, name string, fn func(T) error) func(T) error {
	if tr == nil {
		return fn
	}
	return func(arg T) error {
		return tr.timed(name, func() error { return fn(arg) })
	}
}

// loopTrace replays a recorded multi-day trace for ever: each pass over
// the files is shifted forward by the recording's length, so the runner
// sees consecutive new days and the resolver's clock never runs backwards.
type loopTrace struct {
	paths  []string
	period time.Duration
	shift  time.Duration
	cur    *ingest.TraceSource
	any    bool // the current pass produced a query
}

var errEmptyTrace = errors.New("replay trace holds no queries")

func (l *loopTrace) Next() (resolver.Query, error) {
	for {
		if l.cur == nil {
			l.cur = ingest.NewTraceSource(l.paths...)
			l.any = false
		}
		q, err := l.cur.Next()
		if err == io.EOF {
			if !l.any {
				return q, errEmptyTrace
			}
			l.cur = nil
			l.shift += l.period
			continue
		}
		if err != nil {
			return q, err
		}
		l.any = true
		q.Time = q.Time.Add(l.shift)
		return q, nil
	}
}

func (l *loopTrace) Close() error {
	if l.cur == nil {
		return nil
	}
	return l.cur.Close()
}
