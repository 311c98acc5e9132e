package ingest

import (
	"fmt"
	"io"
	"time"

	"dnsnoise/internal/resolver"
	"dnsnoise/internal/traceio"
	"dnsnoise/internal/workload"
)

// GeneratorSource adapts a workload generator to the QuerySource
// interface: each profile becomes one day of queries, drawn in timestamp
// order through the generator's pull-style DayStream. The source consumes
// the generator's rng exactly as workload.GenerateDay would, so the query
// sequence is identical to the push-style path for the same generator
// state.
type GeneratorSource struct {
	g        *workload.Generator
	profiles []workload.Profile
	day      *workload.DayStream
	next     int
	paused   bool
}

// NewGeneratorSource returns a source yielding one day per profile, in
// order.
func NewGeneratorSource(g *workload.Generator, profiles ...workload.Profile) *GeneratorSource {
	return &GeneratorSource{g: g, profiles: profiles}
}

// Next draws the next query, rolling over to the next profile's day when
// the current one is exhausted. Before each day starts, Next returns
// ErrPause once: starting a day applies its profile to the shared
// registry (TTL era, measurement boost), which must not race in-flight
// resolutions of the previous day's queries.
func (s *GeneratorSource) Next() (resolver.Query, error) {
	for {
		if s.day == nil {
			if s.next >= len(s.profiles) {
				return resolver.Query{}, io.EOF
			}
			if !s.paused {
				s.paused = true
				return resolver.Query{}, ErrPause
			}
			s.paused = false
			s.day = s.g.StartDay(s.profiles[s.next])
			s.next++
		}
		if q, ok := s.day.Next(); ok {
			return q, nil
		}
		s.day = nil
	}
}

// Close is a no-op; the generator is owned by the caller.
func (s *GeneratorSource) Close() error { return nil }

// ReplayProfiles returns an OnDayStart hook that reproduces the live
// generator's registry evolution during a trace replay. Live generation
// applies each day's profile to the registry (re-drawing disposable TTL
// eras from the generator's rng) before emitting that day's queries; the
// authoritative server answers from that live state, so a byte-identical
// replay must walk the registry through the same states. The hook does so
// by generating — and discarding — each day exactly as the recording run
// did, consuming identical rng draws. profileFor must return the same
// profile the recording used for the date; g must be a fresh generator
// built with the recording's seeds.
func ReplayProfiles(g *workload.Generator, profileFor func(time.Time) workload.Profile) func(time.Time) error {
	return func(date time.Time) error {
		day := g.StartDay(profileFor(date))
		for {
			if _, ok := day.Next(); !ok {
				return nil
			}
		}
	}
}

// TraceSource replays serialized query traces: one or more files read in
// sequence, forming a multi-day stream. Gzip-compressed traces are
// decompressed transparently (sniffed, not told), and "-" means stdin.
type TraceSource struct {
	paths []string
	r     *traceio.Reader
	done  func() error
	next  int
}

// NewTraceSource returns a source over the listed trace files.
func NewTraceSource(paths ...string) *TraceSource {
	return &TraceSource{paths: paths}
}

// Next yields the next replayed query, opening files lazily and crossing
// file boundaries transparently.
func (s *TraceSource) Next() (resolver.Query, error) {
	for {
		if s.r == nil {
			if s.next >= len(s.paths) {
				return resolver.Query{}, io.EOF
			}
			r, done, err := traceio.OpenPath(s.paths[s.next])
			if err != nil {
				return resolver.Query{}, fmt.Errorf("ingest: open trace: %w", err)
			}
			s.r, s.done = r, done
			s.next++
		}
		ev, err := s.r.Next()
		if err == io.EOF {
			closeErr := s.done()
			s.r, s.done = nil, nil
			if closeErr != nil {
				return resolver.Query{}, fmt.Errorf("ingest: close trace: %w", closeErr)
			}
			continue
		}
		if err != nil {
			return resolver.Query{}, fmt.Errorf("ingest: trace %s: %w", s.paths[s.next-1], err)
		}
		q, err := ev.ToQuery()
		if err != nil {
			return resolver.Query{}, fmt.Errorf("ingest: trace %s: %w", s.paths[s.next-1], err)
		}
		return q, nil
	}
}

// Close releases the currently open trace file, if any.
func (s *TraceSource) Close() error {
	if s.done == nil {
		return nil
	}
	err := s.done()
	s.r, s.done = nil, nil
	return err
}
