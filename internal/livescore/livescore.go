// Package livescore scores live DNS queries against the streaming miner's
// published verdict set, on the wire serve path and at wire speed. A
// Scorer reads the question name out of the query datagram with the
// authority's reader, dnsmsg.AppendSoleQuestion, into per-worker scratch,
// notes it straight into the StreamingPipeline (ObserveName: one stripe
// lock, and a string only the first time a window sees the name), and
// probes the current core.VerdictSnapshot along the name's ancestor chain.
// All of it runs on the listener's goroutine and, for a name already noted,
// allocates nothing (guarded by AllocsPerRun tests). The Engine is only the
// wall-clock re-score ticker.
package livescore

import (
	"bytes"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/telemetry"
)

const (
	// maxNameLen bounds a presentation-form name (RFC 1035: 255 wire
	// octets bound the dotted form below 255 bytes).
	maxNameLen = 255
	// maxLabels bounds a scored name's labels. 255 wire octets hold at
	// most 127 labels, but a dot inside a wire label splits it in the
	// presentation form, so a name may spell more.
	maxLabels = 128
)

// Scorer scores wire queries for one listener worker. Not safe for
// concurrent use — every worker owns its own (Engine.NewScorer), keeping
// the scratch buffer single-writer.
type Scorer struct {
	pipe *core.StreamingPipeline
	// note is the miner's intake, pipe.ObserveName.
	note func(name []byte)

	scratch [maxNameLen]byte
}

// ScoreWire reads the question name out of a wire-format DNS query with
// dnsmsg.AppendSoleQuestion, the authority's reader, notes it for the
// streaming miner and returns its live verdict: VerdictDisposable when an
// ancestor zone is currently flagged for the name's depth, VerdictBenign
// otherwise, and VerdictNone (noting nothing) when the reader rejects the
// datagram, reads the root, or the name has more than maxLabels labels (or,
// lowered past ASCII, outgrows maxNameLen). Its depth counts its dots, as
// the miner counts it (dnsname.CountLabels). Zero allocations for an ASCII
// name the window has noted; a byte >= 0x80 is lowered as
// dnsname.Normalize does, which may allocate.
func (s *Scorer) ScoreWire(query []byte) qlog.Verdict {
	name, _, _, ok := dnsmsg.AppendSoleQuestion(s.scratch[:0], query)
	if !ok || len(name) == 0 || len(name) > maxNameLen {
		return qlog.VerdictNone
	}
	if bytes.Count(name, []byte{'.'}) >= maxLabels {
		return qlog.VerdictNone
	}
	s.note(name)
	if core.Flagged(s.pipe.Snapshot(), name) {
		return qlog.VerdictDisposable
	}
	return qlog.VerdictBenign
}

// Engine re-scores the streaming pipeline on a wall-clock ticker. Verdict
// snapshots flow back to the scorers through the pipeline's atomic pointer.
type Engine struct {
	pipe *core.StreamingPipeline
	stop chan struct{}
	done chan struct{}
	last *core.RescoreHandle // the loop's latest re-score; Close waits on it
}

// NewEngine wraps a streaming pipeline. The pipeline should be primed (or
// re-scored at least once) before traffic arrives if early verdicts
// matter.
func NewEngine(pipe *core.StreamingPipeline) *Engine {
	return &Engine{pipe: pipe}
}

// NewScorer returns a scorer for one listener worker. Safe to call while
// the engine runs; typically called from the transport's per-listener
// scorer factory during Serve.
func (e *Engine) NewScorer() *Scorer {
	return &Scorer{pipe: e.pipe, note: e.pipe.ObserveName}
}

// SetMetrics registers nothing: the intake has no queue of its own to
// watch (the pipeline's streaming_* series cover it). It stays because the
// benchmark harness calls it.
func (e *Engine) SetMetrics(*telemetry.Registry) {}

// Dropped returns 0: every scored name reaches the pipeline. It stays
// because the benchmark harness reads it.
func (e *Engine) Dropped() uint64 { return 0 }

// Start launches the re-score goroutine, which calls pipe.Rescore every
// rescoreEvery of wall time; 0 starts nothing, and the scorers still feed
// the pipeline. A Rescore closes the window and returns while the pipeline
// mines it on its own goroutine; the scorers' ObserveName may run beside
// both, which is all the serve path observes.
func (e *Engine) Start(rescoreEvery time.Duration) {
	if e.stop != nil || rescoreEvery <= 0 {
		return
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go e.loop(rescoreEvery)
}

func (e *Engine) loop(every time.Duration) {
	defer close(e.done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-tick.C:
			// A failed window leaves the last snapshot in force: no one to tell.
			e.last, _ = e.pipe.Rescore(time.Now().UTC())
		}
	}
}

// Close stops the re-score goroutine and waits for the re-score it last
// started. Idempotent.
func (e *Engine) Close() {
	if e.stop == nil {
		return
	}
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	<-e.done
	if e.last != nil {
		_, _ = e.last.Wait() // its error: as in loop, no one to tell
	}
}
