// Package ingest defines the day pipeline's seams: where queries come
// from (QuerySource), where raw queries go (QuerySink), where tapped
// observations go (ObservationSink), and the runner that drives a query
// stream through a resolver cluster with per-day measurement windows
// (Runner) — pulled from a source by Run, or pushed by a router through
// Submit, Pause and Close, one per-query body either way.
//
// The package exists so the CLIs and the experiment harness stop caring
// whether a query stream is generated live or replayed from a trace, and
// whether observations land in a CHR collector, a passive-DNS store, a
// streaming miner, or all three. A generated day written through a trace sink and
// replayed through a TraceSource produces byte-identical measurements:
// trace timestamps round-trip exactly (RFC 3339 with nanoseconds) and the
// runner preserves the observation order of the pre-ingest wiring.
package ingest

import (
	"errors"

	"dnsnoise/internal/resolver"
)

// ErrPause is a sentinel a QuerySource may return from Next to request
// that the consumer quiesce all in-flight work before pulling again.
// Sources whose Next mutates shared simulation state — a generator
// applying the next day's profile to the registry the authority answers
// from — return it at day boundaries so parallel resolver workers never
// observe the mutation mid-flight. The Runner honors it (a stream
// barrier in parallel mode, a no-op sequentially) and pulls again; plain
// pull loops may simply skip it.
var ErrPause = errors.New("ingest: source requests quiescence")

// QuerySource yields a query stream in timestamp order. Next returns
// io.EOF when the stream is exhausted; Close releases underlying
// resources (file handles) and is safe to call after EOF.
type QuerySource interface {
	Next() (resolver.Query, error)
	Close() error
}

// QuerySink consumes raw queries before resolution — the output side of a
// generation pipeline. *traceio.Writer satisfies it.
type QuerySink interface {
	Consume(q resolver.Query) error
}

// ObservationSink consumes tapped answers from both sides of the resolver
// cluster. *chrstat.Collector and *chrstat.ShardedCollector satisfy it;
// TapSink adapts legacy resolver.Tap pairs. Sinks installed on a parallel
// runner are invoked from concurrent worker goroutines and must be safe
// for concurrent use.
type ObservationSink interface {
	ObserveBelow(ob resolver.Observation)
	ObserveAbove(ob resolver.Observation)
}
