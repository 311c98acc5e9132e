// Package qlog is the query-level event log: a dnstap-style record of
// individual resolutions — name, qtype, outcome, cache/eviction evidence,
// authority round trips, latency — head-sampled on the resolve hot path
// and fanned out to pluggable sinks (gzip JSONL files, the /debug/qlog
// in-memory ring, the exemplar store).
//
// The aggregate telemetry of internal/telemetry answers "how much"; qlog
// answers "which query". When the cache-hit rate collapses or the miner
// flags a zone, the event log holds the concrete queries behind the curve.
//
// # Hot-path discipline
//
// The package follows internal/telemetry's nil-safety contract: a nil
// *Log or *Recorder is a no-op, so call sites thread handles through
// unconditionally and a disabled log costs one nil check per query and
// zero allocations (guarded by AllocsPerRun tests in internal/resolver).
//
// Each worker goroutine owns one Recorder: a fixed-size staging ring it
// writes without any synchronization. Sampling, stamping and storing an
// event are plain stores into preallocated memory — the per-event path is
// lock-free by construction, not by atomics. Only when the ring fills (or
// at a quiesce point) does the owner drain the batch into the shared
// sinks under the log's mutex, amortizing one lock acquisition over the
// ring size.
package qlog

import (
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies how a query was answered.
type Outcome uint8

// Outcomes. A resolver emits Hit for cache answers and
// NoError/NXDomain/ServFail for recursed ones; an authoritative server
// (dnsnoise-serve) emits the rcode-derived subset.
const (
	OutcomeUnknown  Outcome = iota
	OutcomeHit              // cache hit
	OutcomeNoError          // recursed upstream, answered NoError
	OutcomeNXDomain         // answered NXDOMAIN
	OutcomeServFail         // answered SERVFAIL (upstream unreachable)
	OutcomeError            // resolution failed with an error
)

var outcomeNames = [...]string{"unknown", "hit", "noerror", "nxdomain", "servfail", "error"}

// String renders the outcome label used in JSON and /debug/qlog filters.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// MarshalText implements encoding.TextMarshaler, so events serialize the
// label instead of the numeric code.
func (o Outcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses the label; unknown labels map to OutcomeUnknown.
func (o *Outcome) UnmarshalText(text []byte) error {
	s := string(text)
	for i, n := range outcomeNames {
		if n == s {
			*o = Outcome(i)
			return nil
		}
	}
	*o = OutcomeUnknown
	return nil
}

// Verdict is the live disposable-domain score attached to a query when a
// serve-path scorer is wired in (see internal/livescore): whether the
// name's ancestor chain matched a (zone, depth) pair the streaming miner
// currently flags.
type Verdict uint8

// Verdicts. VerdictNone means no scorer was attached (the field is then
// omitted from JSON); benign/disposable are the scorer's answer.
const (
	VerdictNone       Verdict = iota
	VerdictBenign             // scored, no disposable ancestor matched
	VerdictDisposable         // scored, matched a flagged (zone, depth) pair
)

var verdictNames = [...]string{"", "benign", "disposable"}

// String renders the verdict label ("" for none).
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return ""
}

// MarshalText implements encoding.TextMarshaler.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses the label; unknown labels map to VerdictNone.
func (v *Verdict) UnmarshalText(text []byte) error {
	s := string(text)
	for i, n := range verdictNames {
		if i > 0 && n == s {
			*v = Verdict(i)
			return nil
		}
	}
	*v = VerdictNone
	return nil
}

// EvictionCause records what a query's cache insertions displaced — the
// per-query view of the paper's Section VI-A premature-eviction
// accounting.
type EvictionCause uint8

// Eviction causes, worst first. A query performing several insertions
// (a CNAME chain) keeps the most severe cause it observed.
const (
	EvictNone           EvictionCause = iota
	EvictExpired                      // reclaimed an already-expired entry
	EvictLiveOther                    // prematurely evicted a live non-disposable entry
	EvictLiveDisposable               // prematurely evicted a live disposable entry
)

var evictNames = [...]string{"", "expired", "live-other", "live-disposable"}

// String renders the cause label ("" for none).
func (e EvictionCause) String() string {
	if int(e) < len(evictNames) {
		return evictNames[e]
	}
	return ""
}

// MarshalText implements encoding.TextMarshaler.
func (e EvictionCause) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText parses the label; unknown labels map to EvictNone.
func (e *EvictionCause) UnmarshalText(text []byte) error {
	s := string(text)
	for i, n := range evictNames {
		if i > 0 && n == s {
			*e = EvictionCause(i)
			return nil
		}
	}
	*e = EvictNone
	return nil
}

// Event is one sampled query record. Time is the query's (simulated)
// timestamp; Day/Window are stamped from the ingest runner's UTC-day
// rotation, so events join against per-day windows and reports.
type Event struct {
	ID     uint64    `json:"id"`
	Time   time.Time `json:"ts"`
	Day    string    `json:"day,omitempty"`
	Window uint32    `json:"window,omitempty"`
	Server int32     `json:"server"`
	// Pop identifies the originating PoP of a fleet's event (stamped by
	// the PoP's sink; absent in single-cluster runs).
	Pop       int32         `json:"pop,omitempty"`
	Client    uint32        `json:"client,omitempty"`
	Name      string        `json:"name"`
	Qtype     string        `json:"qtype"`
	Outcome   Outcome       `json:"outcome"`
	CacheHit  bool          `json:"cache_hit,omitempty"`
	Evict     EvictionCause `json:"evict,omitempty"`
	AuthRTTs  uint32        `json:"auth_rtts,omitempty"` // upstream exchanges performed
	AuthNs    uint64        `json:"auth_ns,omitempty"`   // wall time spent in upstream exchanges
	LatencyNs uint64        `json:"latency_ns"`
	// Verdict is the live disposable score (serve path with -score only;
	// omitted when no scorer is attached).
	Verdict Verdict `json:"verdict,omitempty"`
}

// Sink consumes drained event batches. Consume must copy anything it
// keeps — the slice is the recorder's staging ring and is reused
// immediately. Sinks are always invoked under the log's mutex, so they
// need no locking against each other; sinks read by other goroutines
// (the /debug/qlog handler) guard their own state. A sink that also
// implements io.Closer is closed by Log.Close.
type Sink interface {
	Consume(events []Event) error
	Flush() error
}

// Config sizes a Log.
type Config struct {
	// Sample head-samples 1 query in Sample per recorder (1 records every
	// query). Default DefaultSample.
	Sample int
}

// DefaultSample is Config's default sample rate. It matches the resolver's
// latency sampling: thousands of events over a simulated day, with the
// per-query cost amortized far below the hit path's own.
const DefaultSample = 64

// DefaultRingSize is each recorder's staging capacity in events — the
// batch size of one sink drain.
const DefaultRingSize = 256

// Log is the shared half of the event log: the sink fan-out, the
// monotonically increasing event ID, and the day/window stamp. Workers
// never touch it directly on the per-event path — they go through their
// own Recorder and meet the log's mutex only when a ring drains.
type Log struct {
	sample uint64

	nextID atomic.Uint64
	day    atomic.Pointer[string]
	window atomic.Uint32

	mu    sync.Mutex
	sinks []Sink
	recs  []*Recorder
	err   error // first sink error, surfaced by Flush/Close
}

// New builds a log; add sinks before any recorder emits.
func New(cfg Config) *Log {
	if cfg.Sample < 1 {
		cfg.Sample = DefaultSample
	}
	return &Log{sample: uint64(cfg.Sample)}
}

// AddSink registers a sink. Nil sinks are dropped.
func (l *Log) AddSink(s Sink) {
	if l == nil || s == nil {
		return
	}
	l.mu.Lock()
	l.sinks = append(l.sinks, s)
	l.mu.Unlock()
}

// NewRecorder returns a staging ring for one worker (identified by
// server in the events it emits). A nil log returns a nil recorder,
// which samples nothing.
func (l *Log) NewRecorder(server int) *Recorder {
	if l == nil {
		return nil
	}
	r := &Recorder{log: l, server: int32(server), sample: l.sample, buf: make([]Event, DefaultRingSize)}
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
	return r
}

// SetDay stamps subsequent events with the given UTC day and advances
// the window counter. Call it only while every recorder's owner is
// quiesced (the ingest runner calls it from its day-rotation barrier);
// the stamp itself is atomic, so concurrent runners sharing one log may
// interleave stamps safely.
func (l *Log) SetDay(day time.Time) {
	if l == nil {
		return
	}
	d := day.UTC().Format("2006-01-02")
	l.day.Store(&d)
	l.window.Add(1)
}

// Flush drains every recorder's staging ring into the sinks and flushes
// them. It must only run while all recorders' owners are quiesced —
// draining a ring races its owner otherwise. Callers holding a single
// cluster quiesced should prefer the cluster's own flush (which drains
// only its recorders); Flush is the end-of-run full drain. It returns
// the first sink error seen so far.
func (l *Log) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	recs := append([]*Recorder(nil), l.recs...)
	l.mu.Unlock()
	for _, r := range recs {
		r.Drain()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.sinks {
		if err := s.Flush(); err != nil && l.err == nil {
			l.err = err
		}
	}
	return l.err
}

// EmitNow stamps ev (ID, day, window) and delivers it straight to the
// sinks, bypassing the per-worker staging rings. It is safe from any
// goroutine at any time — the path for rare out-of-band events (alert
// state transitions) that must land even while recorders are live, and
// whose emitters never own a recorder. Not for per-query use: every call
// takes the sink lock. A nil log drops the event.
func (l *Log) EmitNow(ev Event) {
	if l == nil {
		return
	}
	ev.ID = l.nextID.Add(1)
	if d := l.day.Load(); d != nil {
		ev.Day = *d
		ev.Window = l.window.Load()
	}
	batch := [1]Event{ev}
	l.mu.Lock()
	for _, s := range l.sinks {
		if err := s.Consume(batch[:]); err != nil && l.err == nil {
			l.err = err
		}
	}
	l.mu.Unlock()
}

// Close flushes and closes every sink implementing io.Closer. Like
// Flush, it requires quiesced recorders.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	err := l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.sinks {
		if c, ok := s.(interface{ Close() error }); ok {
			if cerr := c.Close(); cerr != nil && l.err == nil {
				l.err = cerr
			}
		}
	}
	if err == nil {
		err = l.err
	}
	return err
}

// Recorder is one worker's staging ring. All methods except Drain must
// be called from the owning goroutine only; nil recorders are no-ops.
type Recorder struct {
	log    *Log
	server int32
	sample uint64
	tick   uint64
	n      int
	buf    []Event
}

// Sample advances the head-sampling counter and reports whether this
// query should be recorded. On a nil recorder (log disabled) it costs
// exactly the nil check.
func (r *Recorder) Sample() bool {
	if r == nil {
		return false
	}
	r.tick++
	return r.tick%r.sample == 0
}

// Emit stamps ev (ID, day, window, server) and stores it in the staging
// ring, draining the ring to the sinks when it fills. The store itself
// never allocates; a drain's cost depends on the sinks.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	ev.ID = r.log.nextID.Add(1)
	if d := r.log.day.Load(); d != nil {
		ev.Day = *d
		ev.Window = r.log.window.Load()
	}
	ev.Server = r.server
	r.buf[r.n] = ev
	r.n++
	if r.n == len(r.buf) {
		r.Drain()
	}
}

// Drain delivers the staged events to the sinks. Besides the owning
// goroutine, it may be called by a coordinator that has quiesced the
// owner (a cluster flush at a day barrier, Log.Flush at end of run).
func (r *Recorder) Drain() {
	if r == nil || r.n == 0 {
		return
	}
	l := r.log
	l.mu.Lock()
	for _, s := range l.sinks {
		if err := s.Consume(r.buf[:r.n]); err != nil && l.err == nil {
			l.err = err
		}
	}
	l.mu.Unlock()
	// Zero the drained slots so the ring does not pin event names for the
	// garbage collector between drains.
	clear(r.buf[:r.n])
	r.n = 0
}
