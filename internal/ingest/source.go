package ingest

import (
	"errors"
	"fmt"
	"io"
	"time"

	"dnsnoise/internal/resolver"
	"dnsnoise/internal/traceio"
	"dnsnoise/internal/workload"
)

// GeneratorSource adapts a workload generator to the QuerySource
// interface: each profile becomes one day of queries, drawn in timestamp
// order through the generator's DayStream. The source consumes the
// generator's rng exactly as walking each profile's DayStream by hand
// would, so the query sequence is the same for the same generator state.
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
//
// The files are read and decoded on a goroutine of the source's own,
// started by the first Next, which hands Next batches of queries through a
// one-deep channel, so a replay resolves one batch while the next is
// parsed. Next sees exactly what a sequential read would give: the queries
// in trace order, a missing file's open error after the queries of the
// files before it, a bad line's error (file and line) after the queries
// before it, and io.EOF at the end. The goroutine exits after handing over
// that last error or io.EOF, so a source drained to it needs no Close.
type TraceSource struct {
	paths []string
	dec   *traceDecoder // nil until the first Next
	cur   []resolver.Query
	pos   int   // next query in cur
	err   error // ends the stream once cur is drained
}

// traceBatchLen is how many queries one handoff carries: enough that the
// channel operations are a rounding error per query, few enough that the
// batches in flight hold a few dozen KiB.
const traceBatchLen = 256

// traceBatch is one handoff: queries in trace order, then err — nil if
// more follow, otherwise what ends the stream.
type traceBatch struct {
	qs  []resolver.Query
	err error
}

// traceDecoder is the channels between Next and the decoding goroutine.
type traceDecoder struct {
	full chan traceBatch
	// empty returns drained batches for refilling. At most three slices
	// exist — one being filled, one in full, one being read by Next — so a
	// return never blocks.
	empty chan []resolver.Query
	stop  chan struct{} // closed by Close
}

// NewTraceSource returns a source over the listed trace files.
func NewTraceSource(paths ...string) *TraceSource {
	return &TraceSource{paths: paths}
}

// Next yields the next replayed query, opening files lazily and crossing
// file boundaries transparently.
func (s *TraceSource) Next() (resolver.Query, error) {
	for s.pos == len(s.cur) {
		if s.err != nil {
			return resolver.Query{}, s.err
		}
		if s.dec == nil {
			s.dec = &traceDecoder{
				full:  make(chan traceBatch, 1),
				empty: make(chan []resolver.Query, 3),
				stop:  make(chan struct{}),
			}
			go s.dec.run(s.paths)
		} else {
			s.dec.empty <- s.cur[:0]
		}
		b := <-s.dec.full
		s.cur, s.pos, s.err = b.qs, 0, b.err
	}
	q := s.cur[s.pos]
	s.pos++
	return q, nil
}

// Close stops the decoding goroutine without waiting for it: one waiting
// to hand over a batch exits at once, one blocked in a read (of stdin, say)
// when that read returns; it closes its file as it goes. Next reports
// io.EOF after Close.
func (s *TraceSource) Close() error {
	if s.dec != nil && s.err == nil {
		close(s.dec.stop)
	}
	s.cur, s.pos, s.err = nil, 0, io.EOF
	return nil
}

// run decodes the files in order and hands their queries over in full
// batches, then the remainder with the error that ends the stream.
func (d *traceDecoder) run(paths []string) {
	qs := make([]resolver.Query, 0, traceBatchLen)
	var err error
	for _, path := range paths {
		if qs, err = d.decodeFile(path, qs); err != nil {
			break
		}
	}
	switch err {
	case errTraceStopped:
		return
	case nil:
		err = io.EOF
	}
	d.send(traceBatch{qs: qs, err: err})
}

// errTraceStopped ends a decoder that Close has stopped; Next never sees it.
var errTraceStopped = errors.New("ingest: trace source closed")

// decodeFile appends path's queries to qs, handing over every full batch,
// and returns the partial batch it ends with.
func (d *traceDecoder) decodeFile(path string, qs []resolver.Query) ([]resolver.Query, error) {
	r, done, err := traceio.OpenPath(path)
	if err != nil {
		return qs, fmt.Errorf("ingest: open trace: %w", err)
	}
	qs, err = d.decode(r, path, qs)
	if closeErr := done(); err == nil && closeErr != nil {
		err = fmt.Errorf("ingest: close trace: %w", closeErr)
	}
	return qs, err
}

// decode is decodeFile's read loop; it returns nil at the end of r.
func (d *traceDecoder) decode(r *traceio.Reader, path string, qs []resolver.Query) ([]resolver.Query, error) {
	for {
		ev, err := r.Next()
		select {
		case <-d.stop: // checked per line: a read of stdin may have blocked
			return qs, errTraceStopped
		default:
		}
		if err == io.EOF {
			return qs, nil
		}
		if err != nil {
			return qs, fmt.Errorf("ingest: trace %s: %w", path, err)
		}
		q, err := ev.ToQuery()
		if err != nil {
			return qs, fmt.Errorf("ingest: trace %s: %w", path, err)
		}
		if qs = append(qs, q); len(qs) == traceBatchLen {
			if !d.send(traceBatch{qs: qs}) {
				return nil, errTraceStopped
			}
			select {
			case qs = <-d.empty:
			default:
				qs = make([]resolver.Query, 0, traceBatchLen)
			}
		}
	}
}

// send hands b to Next, or reports false once Close has been called.
func (d *traceDecoder) send(b traceBatch) bool {
	select {
	case d.full <- b:
		return true
	case <-d.stop:
		return false
	}
}
