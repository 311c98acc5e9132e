package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kind identifies a metric's type.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// entry is one registered metric: either a direct instrument or a
// read-time collection function (for code that keeps its own
// single-writer shards and merges them on read).
type entry struct {
	name string
	help string
	kind Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	counterFn func() uint64
	gaugeFn   func() float64
	histFn    func() HistogramSnapshot
}

// Registry is a named collection of metrics. A nil *Registry is the
// disabled state: every method is a no-op and every instrument it hands
// out is nil (whose methods are no-ops in turn), so "telemetry off"
// costs one nil check per instrumented site.
//
// Metric names follow the Prometheus exposition conventions:
// snake_case, unit suffix, "_total" for counters. A name may carry a
// label set in curly braces (`resolver_queries_total{server="0"}`);
// the exposition writer merges series of the same base name under one
// family. Registering the same name twice returns the existing
// instrument; registering it with a different kind panics.
type Registry struct {
	*metricSet        // shared with every view of this registry
	labels     string // appended to names registered through this view
}

// metricSet is the state a registry shares with its labelled views.
type metricSet struct {
	mu      sync.Mutex
	entries map[string]*entry
	runtime runtimeStats
}

// NewRegistry returns a registry pre-populated with Go runtime gauges
// (go_goroutines, go_heap_alloc_bytes, go_gc_cycles_total).
func NewRegistry() *Registry {
	r := &Registry{metricSet: &metricSet{entries: make(map[string]*entry)}}
	registerRuntimeMetrics(r)
	return r
}

// WithLabel returns a view of r that appends key="value" to the label set
// of every name registered through it: `resolver_queries_total{server="0"}`
// registered on r.WithLabel("pop", "2") is the series
// `resolver_queries_total{server="0",pop="2"}` of r. The view shares r's
// metrics, so snapshotting or serving either shows them all, the runtime
// gauges once. A nil registry yields a nil view.
func (r *Registry) WithLabel(key, value string) *Registry {
	if r == nil {
		return nil
	}
	pair := fmt.Sprintf("%s=%q", key, value)
	if r.labels != "" {
		pair = r.labels + "," + pair
	}
	return &Registry{metricSet: r.metricSet, labels: pair}
}

// lookup get-or-creates the entry for name (relabelled by the view),
// panicking on kind mismatch.
func (r *Registry) lookup(name, help string, kind Kind) *entry {
	if r.labels != "" {
		base, labels := SplitSeries(name)
		name = base + joinLabels(labels, r.labels)
	}
	e, ok := r.entries[name]
	if !ok {
		e = &entry{name: name, help: help, kind: kind}
		r.entries[name] = e
		return e
	}
	if e.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as a different kind", name))
	}
	return e
}

// Counter get-or-creates the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, help, KindCounter)
	if e.counter == nil && e.counterFn == nil {
		e.counter = new(Counter)
	}
	return e.counter
}

// Gauge get-or-creates the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, help, KindGauge)
	if e.gauge == nil && e.gaugeFn == nil {
		e.gauge = new(Gauge)
	}
	return e.gauge
}

// Histogram get-or-creates the named histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, help, KindHistogram)
	if e.hist == nil && e.histFn == nil {
		e.hist = new(Histogram)
	}
	return e.hist
}

// CounterFunc registers a counter whose value is read from fn at
// collection time — the zero-hot-path-cost pattern for code that already
// keeps single-writer shards (e.g. the resolver's per-server stats).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, KindCounter).counterFn = fn
}

// GaugeFunc registers a gauge read from fn at collection time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, KindGauge).gaugeFn = fn
}

// HistogramFunc registers a histogram whose snapshot is produced by fn
// at collection time — typically a SnapshotHistograms merge over
// per-worker shards.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, KindHistogram).histFn = fn
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Time       time.Time                    `json:"time"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// sortedEntries opens a collection pass: it takes the pass's one runtime
// reading, then returns the registry's entries ordered by name, holding
// the lock only for the copy (collection functions run unlocked, so
// they may themselves take locks).
func (r *Registry) sortedEntries() []*entry {
	r.runtime.read()
	r.mu.Lock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (e *entry) counterValue() uint64 {
	if e.counterFn != nil {
		return e.counterFn()
	}
	return e.counter.Value()
}

func (e *entry) gaugeValue() float64 {
	if e.gaugeFn != nil {
		return e.gaugeFn()
	}
	return e.gauge.Value()
}

func (e *entry) histValue() HistogramSnapshot {
	if e.histFn != nil {
		return e.histFn()
	}
	return e.hist.Snapshot()
}

// Snapshot captures every metric. It never blocks writers: instruments
// are read atomically and collection functions run outside the registry
// lock. A nil registry yields a nil snapshot.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Time:       time.Now(),
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, e := range r.sortedEntries() {
		switch e.kind {
		case KindCounter:
			s.Counters[e.name] = e.counterValue()
		case KindGauge:
			s.Gauges[e.name] = e.gaugeValue()
		case KindHistogram:
			s.Histograms[e.name] = e.histValue()
		}
	}
	return s
}

// Counter returns the named counter's value in the snapshot (0 when
// absent or for a nil snapshot).
func (s *Snapshot) Counter(name string) uint64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}
