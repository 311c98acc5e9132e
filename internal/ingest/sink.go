package ingest

import (
	"io"

	"dnsnoise/internal/resolver"
)

// tapSink adapts a pair of legacy resolver taps to the sink interface.
type tapSink struct {
	below, above resolver.Tap
}

// TapSink wraps below/above taps as an ObservationSink; either may be
// nil. This is the bridge for tap-shaped consumers (pdns.Store.Tap,
// chrstat.HourlyCounter.Tap, fingerprint writers) that predate the sink
// interface.
func TapSink(below, above resolver.Tap) ObservationSink {
	return tapSink{below: below, above: above}
}

func (t tapSink) ObserveBelow(ob resolver.Observation) {
	if t.below != nil {
		t.below.Observe(ob)
	}
}

func (t tapSink) ObserveAbove(ob resolver.Observation) {
	if t.above != nil {
		t.above.Observe(ob)
	}
}

// Pump drains a source into query sinks without resolving anything — the
// generation pipeline's shape: source → trace writer. It returns the
// number of queries pumped. The source is left for the caller to close.
func Pump(src QuerySource, sinks ...QuerySink) (int, error) {
	n := 0
	for {
		q, err := src.Next()
		if err == ErrPause {
			continue // nothing resolves here, quiescence is trivial
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		for _, s := range sinks {
			if err := s.Consume(q); err != nil {
				return n, err
			}
		}
		n++
	}
}
