package qlog

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/telemetry"
)

// JSONLSink writes events as JSON lines, one per event — the -qlog file
// format. Flush and Close are the embedded jsonl.Writer's.
type JSONLSink struct{ *jsonl.Writer[Event] }

// Consume encodes the batch.
func (s JSONLSink) Consume(events []Event) error {
	for i := range events {
		if err := s.Write(&events[i]); err != nil {
			return err
		}
	}
	return nil
}

// MemorySink retains the last N events in a ring, serving them (with
// filters) over /debug/qlog. Consume copies into preallocated slots, so
// steady-state retention allocates only what the event strings already
// carry.
type MemorySink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	total uint64
}

// NewMemorySink retains the last n events (n < 1 promoted to 1).
func NewMemorySink(n int) *MemorySink {
	if n < 1 {
		n = 1
	}
	return &MemorySink{buf: make([]Event, n)}
}

// Consume copies the batch into the ring.
func (m *MemorySink) Consume(events []Event) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range events {
		m.buf[m.next] = events[i]
		m.next++
		if m.next == len(m.buf) {
			m.next = 0
			m.full = true
		}
		m.total++
	}
	return nil
}

// Flush is a no-op; the ring is always current.
func (m *MemorySink) Flush() error { return nil }

// Total returns how many events the sink has seen (retained or not).
func (m *MemorySink) Total() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Filter selects events from a MemorySink snapshot. Zero values match
// everything.
type Filter struct {
	// Zone keeps events whose name equals it or is a subdomain of it.
	Zone string
	// Qtype keeps events with this record type mnemonic (e.g. "A").
	Qtype string
	// Outcome keeps events with this outcome label (e.g. "hit").
	Outcome string
	// Verdict keeps events with this disposable-score label ("benign" or
	// "disposable").
	Verdict string
	// Server keeps events handled by this cluster server id. A string so
	// the zero value means "any" while "0" still selects server 0.
	Server string
	// Pop keeps events stamped with this fleet PoP id (same string
	// convention as Server).
	Pop string
	// Since keeps events at or after this time; zero means unbounded.
	// With Until it links an alert firing window to its query events.
	Since time.Time
	// Until keeps events at or before this time; zero means unbounded.
	Until time.Time
	// Limit caps the result to the newest Limit events (0 = all retained).
	Limit int
}

func (f Filter) match(ev *Event) bool {
	if f.Server != "" {
		if v, err := strconv.Atoi(f.Server); err != nil || int32(v) != ev.Server {
			return false
		}
	}
	if f.Pop != "" {
		if v, err := strconv.Atoi(f.Pop); err != nil || int32(v) != ev.Pop {
			return false
		}
	}
	if f.Zone != "" && ev.Name != f.Zone && !strings.HasSuffix(ev.Name, "."+f.Zone) {
		return false
	}
	if f.Qtype != "" && !strings.EqualFold(ev.Qtype, f.Qtype) {
		return false
	}
	if f.Outcome != "" && ev.Outcome.String() != f.Outcome {
		return false
	}
	if f.Verdict != "" && ev.Verdict.String() != f.Verdict {
		return false
	}
	if !f.Since.IsZero() && ev.Time.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && ev.Time.After(f.Until) {
		return false
	}
	return true
}

// Snapshot returns the retained events matching f, oldest first.
func (m *MemorySink) Snapshot(f Filter) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event
	appendMatch := func(evs []Event) {
		for i := range evs {
			if f.match(&evs[i]) {
				out = append(out, evs[i])
			}
		}
	}
	if m.full {
		appendMatch(m.buf[m.next:])
	}
	appendMatch(m.buf[:m.next])
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Handler serves the ring as JSON:
//
//	GET /debug/qlog?zone=<suffix>&qtype=<type>&outcome=<label>&verdict=<label>&server=<id>&pop=<id>&since=<ts>&until=<ts>&n=<limit>
//
// The response carries the total events seen, the retained count, and
// the matching events (newest last). server and pop scope the tail to
// one cluster server or (in a fleet's tail) one PoP; since and
// until (RFC3339 or Unix seconds) bound the event times, e.g. to the
// minute around an alert transition.
func (m *MemorySink) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		f := Filter{Zone: q.Get("zone"), Qtype: q.Get("qtype"), Outcome: q.Get("outcome"),
			Verdict: q.Get("verdict"), Server: q.Get("server"), Pop: q.Get("pop"), Limit: 100}
		if n := q.Get("n"); n != "" {
			v, err := strconv.Atoi(n)
			if err != nil || v < 0 {
				http.Error(w, "qlog: bad n parameter", http.StatusBadRequest)
				return
			}
			f.Limit = v
		}
		var err error
		if f.Since, err = telemetry.ParseTime(q.Get("since")); err != nil {
			http.Error(w, "qlog: bad since parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		if f.Until, err = telemetry.ParseTime(q.Get("until")); err != nil {
			http.Error(w, "qlog: bad until parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		evs := m.Snapshot(f)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Total    uint64  `json:"total"`
			Returned int     `json:"returned"`
			Events   []Event `json:"events"`
		}{m.Total(), len(evs), evs})
	})
}

// Exemplar links one telemetry histogram bucket to a concrete sample
// event: the last event whose latency fell in [Lo, Hi), plus how many
// the bucket has seen. This is what turns "the p99 bucket grew" into
// "this query, this name, this outcome".
type Exemplar struct {
	Lo        uint64    `json:"lo"`
	Hi        uint64    `json:"hi"`
	Count     uint64    `json:"count"`
	EventID   uint64    `json:"event_id"`
	Name      string    `json:"name"`
	Outcome   Outcome   `json:"outcome"`
	LatencyNs uint64    `json:"latency_ns"`
	Time      time.Time `json:"ts"`
}

// ExemplarSink indexes events by latency into the same power-of-two
// buckets telemetry.Histogram uses (bits.Len64 of the value), so a
// bucket in the resolver_latency_ns exposition resolves to a recent
// event ID here.
type ExemplarSink struct {
	mu      sync.Mutex
	buckets [telemetry.HistogramBuckets]Exemplar
}

// NewExemplarSink returns an empty store.
func NewExemplarSink() *ExemplarSink { return &ExemplarSink{} }

// Consume keeps the last event per latency bucket.
func (e *ExemplarSink) Consume(events []Event) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range events {
		ev := &events[i]
		b := &e.buckets[telemetry.HistogramBucketOf(ev.LatencyNs)]
		b.Count++
		b.EventID = ev.ID
		b.Name = ev.Name
		b.Outcome = ev.Outcome
		b.LatencyNs = ev.LatencyNs
		b.Time = ev.Time
	}
	return nil
}

// Flush is a no-op.
func (e *ExemplarSink) Flush() error { return nil }

// Snapshot returns the non-empty buckets with their value bounds,
// ascending.
func (e *ExemplarSink) Snapshot() []Exemplar {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Exemplar
	for i := range e.buckets {
		if e.buckets[i].Count == 0 {
			continue
		}
		ex := e.buckets[i]
		ex.Lo, ex.Hi = telemetry.HistogramBucketBounds(i)
		out = append(out, ex)
	}
	return out
}

// Handler serves the exemplar table as JSON (GET /debug/qlog/exemplars).
func (e *ExemplarSink) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		exs := e.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Buckets []Exemplar `json:"buckets"`
		}{exs})
	})
}
