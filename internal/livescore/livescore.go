// Package livescore scores live DNS queries against the streaming miner's
// published verdict set, on the wire serve path and at wire speed. A
// Scorer parses the question name straight out of the query datagram into
// per-worker scratch (no heap allocation, guarded by AllocsPerRun tests),
// probes the current core.VerdictSnapshot along the name's ancestor
// chain, and stages the name in a single-producer ring so the Engine's
// drain goroutine can feed it to the StreamingPipeline off the packet
// path. The packet loop never takes a lock and never allocates; the
// stripe-lock intake happens on the Engine's goroutine, where a name becomes
// a string the first time a window sees it: what the serve path allocates
// must not depend on how many names a full ring dropped.
package livescore

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"dnsnoise/internal/core"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/telemetry"
)

const (
	// maxNameLen bounds a presentation-form name (RFC 1035: 255 wire
	// octets bound the dotted form below 255 bytes).
	maxNameLen = 255
	// maxLabelStarts bounds the per-label offset table; 255 wire octets
	// cannot hold more than 127 labels.
	maxLabelStarts = 128
	// ringSlots is each scorer's staging capacity. When the miner's drain
	// falls behind, pushes drop (counted) rather than block the packet
	// loop.
	ringSlots = 1024
	// qnameOffset is where the question name starts in a query datagram.
	qnameOffset = 12
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
	starts  [maxLabelStarts]int

	// last holds the previously staged name, so bursts of the same query
	// (a hot name between drains) stage once instead of flooding the ring.
	last    [maxNameLen]byte
	lastLen int
}

// ScoreWire parses the question name out of a wire-format DNS query and
// returns its live verdict: VerdictDisposable when an ancestor zone is
// currently flagged for the name's depth, VerdictBenign otherwise, and
// VerdictNone when no question name can be parsed (runts, root queries,
// compression pointers in the question — which no sane client sends).
// The name, staged for the streaming miner too, is the question's name as
// dnsname.Normalize spells it. Zero allocations for an ASCII name; a label
// with a byte >= 0x80 is lowered as Normalize does, which may allocate.
func (s *Scorer) ScoreWire(query []byte) qlog.Verdict {
	if len(query) <= qnameOffset {
		return qlog.VerdictNone
	}
	off, w, depth := qnameOffset, 0, 0
	for {
		if off >= len(query) {
			return qlog.VerdictNone // truncated name
		}
		b := int(query[off])
		if b == 0 {
			break
		}
		if b >= 64 {
			// Compression pointer or reserved label type in a question
			// name: not scoreable without decompression.
			return qlog.VerdictNone
		}
		off++
		if off+b > len(query) || depth >= maxLabelStarts || w+b+1 > maxNameLen {
			return qlog.VerdictNone
		}
		if w > 0 {
			s.scratch[w] = '.'
			w++
		}
		s.starts[depth] = w
		var high byte
		for i := 0; i < b; i++ {
			c := query[off+i]
			high |= c
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			s.scratch[w] = c
			w++
		}
		if high >= utf8.RuneSelf {
			// Rare: Unicode lowering, which may change the label's length.
			// Lowering label by label spells what lowering the whole name
			// does, since no byte of a multi-byte rune is a dot.
			low := strings.ToLower(string(query[off : off+b]))
			if s.starts[depth]+len(low) > maxNameLen {
				return qlog.VerdictNone
			}
			w = s.starts[depth] + copy(s.scratch[s.starts[depth]:], low)
		}
		depth++
		off += b
	}
	if w > 0 && s.scratch[w-1] == '.' {
		w-- // a last label's own trailing dot, which Normalize drops
	}
	if w == 0 {
		return qlog.VerdictNone // root query
	}
	name := s.scratch[:w]

	// Stage for the miner's intake, skipping immediate repeats of a hot
	// name (the pipeline dedups across the window anyway).
	if w != s.lastLen || !bytes.Equal(name, s.last[:s.lastLen]) {
		if s.ring.push(name) {
			s.lastLen = copy(s.last[:], name)
		}
	}

	snap := s.eng.pipe.Snapshot()
	bit, ok := core.DepthBit(depth)
	if snap == nil || !ok {
		return qlog.VerdictBenign
	}
	// Probe the proper ancestors (the paper's zones are always above the
	// name): deepest first matches core.Matcher's semantics, though the
	// snapshot makes any hit decisive.
	for i := 1; i < depth; i++ {
		if mask, hit := snap.Lookup(name[s.starts[i]:]); hit && mask&bit != 0 {
			return qlog.VerdictDisposable
		}
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

// Pipeline returns the wrapped streaming pipeline.
func (e *Engine) Pipeline() *core.StreamingPipeline { return e.pipe }

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
