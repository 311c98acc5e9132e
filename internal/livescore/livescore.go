// Package livescore scores live DNS queries against the streaming miner's
// published verdict set, on the wire serve path and at wire speed. A
// Scorer reads the question name out of the query datagram with the
// authority's reader, dnsmsg.AppendSoleQuestion, into per-worker scratch (no
// heap allocation, guarded by AllocsPerRun tests), probes the current
// core.VerdictSnapshot along the name's ancestor chain, and stages the name
// in a single-producer ring so the Engine's drain goroutine can feed it to
// the StreamingPipeline off the packet path. The packet loop never takes a
// lock and never allocates; the stripe-lock intake happens on the Engine's
// goroutine, where a name becomes a string the first time a window sees it:
// what the serve path allocates must not depend on how many names a full
// ring dropped.
package livescore

import (
	"bytes"
	"sync"
	"sync/atomic"
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
	// ringSlots is each scorer's staging capacity. When the miner's drain
	// falls behind, pushes drop (counted) rather than block the packet
	// loop.
	ringSlots = 1024
)

// nameSlot is one staged name in a scorer's ring.
type nameSlot struct {
	n   int
	buf [maxNameLen]byte
}

// nameRing is a fixed single-producer/single-consumer ring of name bytes.
// The producer is the scorer's owning listener worker; the consumer is
// the engine's drain goroutine.
type nameRing struct {
	head    atomic.Uint64 // written by producer
	tail    atomic.Uint64 // written by consumer
	dropped atomic.Uint64
	slots   [ringSlots]nameSlot
}

// push stages a name, dropping it when the ring is full. Producer only.
func (r *nameRing) push(name []byte) bool {
	h := r.head.Load()
	if h-r.tail.Load() >= ringSlots {
		r.dropped.Add(1)
		return false
	}
	s := &r.slots[h%ringSlots]
	s.n = copy(s.buf[:], name)
	r.head.Store(h + 1)
	return true
}

// drain lends every staged name to fn until it returns. Consumer only.
func (r *nameRing) drain(fn func([]byte)) int {
	n := 0
	for {
		t := r.tail.Load()
		if t == r.head.Load() {
			return n
		}
		s := &r.slots[t%ringSlots]
		fn(s.buf[:s.n])
		r.tail.Store(t + 1)
		n++
	}
}

// Scorer scores wire queries for one listener worker. Not safe for
// concurrent use — every worker owns its own (Engine.NewScorer), keeping
// the scratch buffers single-writer.
type Scorer struct {
	eng  *Engine
	ring nameRing

	scratch [maxNameLen]byte

	// last holds the previously staged name, so bursts of the same query
	// (a hot name between drains) stage once instead of flooding the ring.
	last    [maxNameLen]byte
	lastLen int
}

// ScoreWire reads the question name out of a wire-format DNS query with
// dnsmsg.AppendSoleQuestion, the authority's reader, and returns its live
// verdict: VerdictDisposable when an ancestor zone is currently flagged for
// the name's depth, VerdictBenign otherwise, and VerdictNone when the reader
// rejects the datagram, reads the root, or the name has more than
// maxLabels labels (or, lowered past ASCII, outgrows a ring slot). The
// name, staged for the streaming miner too, is the one the reader returns;
// its depth counts its dots, as the miner counts it (dnsname.CountLabels).
// Zero allocations for an ASCII name; a byte >= 0x80 is lowered as
// dnsname.Normalize does, which may allocate.
func (s *Scorer) ScoreWire(query []byte) qlog.Verdict {
	name, _, _, ok := dnsmsg.AppendSoleQuestion(s.scratch[:0], query)
	if !ok || len(name) == 0 || len(name) > maxNameLen {
		return qlog.VerdictNone
	}
	if bytes.Count(name, []byte{'.'}) >= maxLabels {
		return qlog.VerdictNone
	}

	// Stage for the miner's intake, skipping immediate repeats of a hot
	// name (the pipeline dedups across the window anyway).
	if !bytes.Equal(name, s.last[:s.lastLen]) {
		if s.ring.push(name) {
			s.lastLen = copy(s.last[:], name)
		}
	}

	if core.Flagged(s.eng.pipe.Snapshot(), name) {
		return qlog.VerdictDisposable
	}
	return qlog.VerdictBenign
}

// Engine owns the off-path half of live scoring: the drain goroutine
// moving staged names from every scorer's ring into the streaming
// pipeline, and (optionally) the periodic wall-clock re-score. Verdict
// snapshots flow back to the scorers through the pipeline's atomic
// pointer.
type Engine struct {
	pipe *core.StreamingPipeline

	mu      sync.Mutex
	scorers []*Scorer

	every   time.Duration
	stop    chan struct{}
	done    chan struct{}
	last    *core.RescoreHandle // the loop's latest re-score; Close waits on it
	drained atomic.Uint64
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
	s := &Scorer{eng: e}
	e.mu.Lock()
	e.scorers = append(e.scorers, s)
	e.mu.Unlock()
	return s
}

// SetMetrics registers the engine's intake counters with reg.
func (e *Engine) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("livescore_names_drained_total",
		"Names moved from scorer rings into the streaming miner.",
		e.drained.Load)
	reg.CounterFunc("livescore_names_dropped_total",
		"Names dropped because a scorer ring was full.", e.Dropped)
}

// Dropped returns how many names were lost to full rings.
func (e *Engine) Dropped() uint64 {
	e.mu.Lock()
	scorers := e.scorers
	e.mu.Unlock()
	var total uint64
	for _, s := range scorers {
		total += s.ring.dropped.Load()
	}
	return total
}

// Flush drains every scorer ring into the pipeline once. The engine's
// goroutine does this continuously; Flush is for tests and shutdown.
// Safe against concurrent producers, but not against a second consumer —
// do not call while the engine is running except from its own callbacks.
func (e *Engine) Flush() int {
	e.mu.Lock()
	scorers := e.scorers
	e.mu.Unlock()
	total := 0
	for _, s := range scorers {
		total += s.ring.drain(e.pipe.ObserveName)
	}
	e.drained.Add(uint64(total))
	return total
}

// Start launches the engine goroutine: a tight drain loop (idling a few
// milliseconds when rings are empty) that also calls pipe.Rescore every
// rescoreEvery of wall time (0 disables re-scoring — intake only). The
// goroutine is the pipeline's only observer, so each Rescore finds the
// intake quiesced; it closes the window and returns, and the loop goes back
// to draining rings while the pipeline mines that window on its own
// goroutine. The packet-path producers only ever meet the ring's atomics.
func (e *Engine) Start(rescoreEvery time.Duration) {
	if e.stop != nil {
		return
	}
	e.every = rescoreEvery
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go e.loop()
}

func (e *Engine) loop() {
	defer close(e.done)
	var next time.Time
	if e.every > 0 {
		next = time.Now().Add(e.every)
	}
	idle := time.NewTimer(0)
	defer idle.Stop()
	for {
		n := e.Flush()
		if e.every > 0 && !time.Now().Before(next) {
			// A failed window leaves the last snapshot in force: no one to tell.
			e.last, _ = e.pipe.Rescore(time.Now().UTC())
			next = time.Now().Add(e.every)
		}
		if n > 0 {
			select {
			case <-e.stop:
				e.Flush()
				return
			default:
			}
			continue
		}
		idle.Reset(2 * time.Millisecond)
		select {
		case <-e.stop:
			e.Flush()
			return
		case <-idle.C:
		}
	}
}

// Close stops the engine goroutine after a final drain, and waits for the
// re-score it last started. Idempotent.
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
