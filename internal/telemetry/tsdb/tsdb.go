// Package tsdb is a dependency-free, fixed-memory time-series store for
// telemetry history. A DB ingests Registry snapshots (one call to Record per
// sweep), keeps the last N samples of every series in a per-series ring
// buffer, and synthesizes derived series the point-in-time scrape cannot
// express: per-second rates, ratio gauges (drop rate, cache-hit ratio,
// disposable-verdict share) computed from counter deltas, and windowed
// p50/p99 gauges computed from histogram-snapshot deltas between sweeps.
//
// Memory is bounded up front: DefaultRetain samples x live series, 16 bytes
// per sample, no reallocation after a series' first appearance. Everything runs
// in the sweep goroutine; the packet/resolve hot path is never touched —
// sweeps read the same scrape-time CounterFunc/shard-sum paths /metrics
// uses.
package tsdb

import (
	"sort"
	"strings"
	"sync"
	"time"

	"dnsnoise/internal/telemetry"
)

// Kind says how a series' samples should be interpreted by aggregation:
// counters are cumulative (rate is meaningful), gauges are instantaneous.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
)

func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// sample is one retained observation. Timestamps are Unix nanoseconds so
// bucket math in Query is integer-only.
type sample struct {
	t int64
	v float64
}

// series is a fixed-capacity ring of samples. next is the slot the next
// append lands in; once full wraps, the ring holds the trailing retain
// samples in circular order.
type series struct {
	kind Kind
	buf  []sample
	next int
	full bool
}

func (s *series) append(t int64, v float64) {
	s.buf[s.next] = sample{t: t, v: v}
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
}

// len reports how many samples the ring currently holds.
func (s *series) len() int {
	if s.full {
		return len(s.buf)
	}
	return s.next
}

// ordered appends the ring's samples, oldest first, to dst and returns it.
func (s *series) ordered(dst []sample) []sample {
	if s.full {
		dst = append(dst, s.buf[s.next:]...)
	}
	return append(dst, s.buf[:s.next]...)
}

// DefaultRetain is the number of samples every series keeps (its ring
// capacity): 10 minutes of history at a 1s sweep interval.
const DefaultRetain = 600

// DB is the store. All methods are safe for concurrent use; Record is
// expected to be called from a single sweep goroutine but is not required
// to be.
type DB struct {
	mu      sync.Mutex
	derived []DerivedRule // DefaultDerived(), evaluated per sweep

	series map[string]*series
	names  []string // sorted keys of series, for deterministic listings

	// prevHist remembers the previous cumulative histogram snapshot per
	// series so each sweep can compute windowed (delta) percentiles.
	prevHist map[string]telemetry.HistogramSnapshot
	// prevCnt remembers previous counter values for derived-rule deltas.
	prevCnt map[string]float64
	lastT   int64
	sweeps  uint64
}

// New builds an empty DB whose series keep DefaultRetain samples each and
// which evaluates the DefaultDerived rule set.
func New() *DB {
	return &DB{
		derived:  DefaultDerived(),
		series:   make(map[string]*series),
		prevHist: make(map[string]telemetry.HistogramSnapshot),
		prevCnt:  make(map[string]float64),
	}
}

// Retain reports the per-series ring capacity.
func (db *DB) Retain() int { return DefaultRetain }

// Sweeps reports how many snapshots have been recorded.
func (db *DB) Sweeps() uint64 {
	if db == nil {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.sweeps
}

// upsert returns the ring for name, creating it (with DefaultRetain
// capacity) on first sight. Caller holds db.mu.
func (db *DB) upsert(name string, kind Kind) *series {
	if s, ok := db.series[name]; ok {
		return s
	}
	s := &series{kind: kind, buf: make([]sample, DefaultRetain)}
	db.series[name] = s
	i := sort.SearchStrings(db.names, name)
	db.names = append(db.names, "")
	copy(db.names[i+1:], db.names[i:])
	db.names[i] = name
	return s
}

// Record ingests one Registry snapshot: counters and gauges verbatim,
// histograms as a cumulative <name>_count series plus windowed <name>_p50 /
// <name>_p99 gauges (quantiles of the delta since the previous sweep — zero
// when the window saw no observations, which is what lets latency alerts
// resolve when traffic stops), then the derived ratio/rate series. Nil DB
// and nil snapshot are no-ops. Timestamps are forced monotonic so rate
// denominators can never be zero or negative.
func (db *DB) Record(snap *telemetry.Snapshot) {
	if db == nil || snap == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()

	t := snap.Time.UnixNano()
	if t <= db.lastT {
		t = db.lastT + 1
	}

	// Counter deltas feed the derived rules; grouped by pop label so fleet
	// sweeps yield per-PoP derived series bit-identical to single-PoP ones.
	var deltas []counterDelta
	if len(db.derived) > 0 {
		deltas = make([]counterDelta, 0, len(snap.Counters))
	}

	for _, name := range sortedKeys(snap.Counters) {
		v := float64(snap.Counters[name])
		s := db.upsert(name, KindCounter)
		s.append(t, v)
		if deltas != nil {
			prev, seen := db.prevCnt[name]
			d := v - prev
			if !seen || d < 0 { // first sight or counter reset
				d = v
			}
			base, labels := telemetry.SplitSeries(name)
			deltas = append(deltas, counterDelta{base: base, labels: labels, delta: d})
		}
		db.prevCnt[name] = v
	}

	for _, name := range sortedKeys(snap.Gauges) {
		db.upsert(name, KindGauge).append(t, snap.Gauges[name])
	}

	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		base, labels := telemetry.SplitSeries(name)
		db.upsert(base+"_count"+wrapLabels(labels), KindCounter).append(t, float64(h.Count))
		w := h.Delta(db.prevHist[name])
		db.prevHist[name] = h
		db.upsert(base+"_p50"+wrapLabels(labels), KindGauge).append(t, float64(w.P50))
		db.upsert(base+"_p99"+wrapLabels(labels), KindGauge).append(t, float64(w.P99))
	}

	if db.sweeps > 0 && len(deltas) > 0 {
		dt := float64(t-db.lastT) / float64(time.Second)
		db.recordDerived(t, dt, deltas)
	}

	db.lastT = t
	db.sweeps++
}

// counterDelta is one counter's increase since the previous sweep, split
// into base name and label set for derived-rule matching.
type counterDelta struct {
	base   string
	labels string
	delta  float64
}

// recordDerived evaluates every derived rule over the sweep's counter
// deltas, grouping by the pop label (empty for single-process runs) so each
// PoP gets its own derived series. Caller holds db.mu.
func (db *DB) recordDerived(t int64, dtSeconds float64, deltas []counterDelta) {
	type accum struct {
		num, den float64
		denSeen  bool
	}
	for _, rule := range db.derived {
		groups := make(map[string]*accum)
		get := func(pop string) *accum {
			a := groups[pop]
			if a == nil {
				a = &accum{}
				groups[pop] = a
			}
			return a
		}
		for _, d := range deltas {
			pop := telemetry.LabelValue(d.labels, "pop")
			if d.base == rule.Num && rule.matchNumLabels(d.labels) {
				get(pop).num += d.delta
			}
			for _, den := range rule.Den {
				if d.base == den {
					a := get(pop)
					a.den += d.delta
					a.denSeen = true
				}
			}
		}
		for _, pop := range sortedKeys(groups) {
			a := groups[pop]
			name := rule.Name
			if pop != "" {
				name += `{pop="` + pop + `"}`
			}
			var v float64
			if len(rule.Den) == 0 {
				// Pure rate: numerator increase per second.
				v = a.num / dtSeconds
			} else {
				if !a.denSeen || a.den == 0 {
					continue // no activity in the window: no data, not 0
				}
				v = a.num / a.den
			}
			db.upsert(name, KindGauge).append(t, v)
		}
	}
}

// DerivedRule synthesizes a gauge series from counter deltas each sweep.
// With Den empty the result is a per-second rate of Num's increase; with
// Den set it is the ratio of Num's increase to the summed increase of the
// Den counters (a sample is only emitted when the denominator moved).
// Matching is by base metric name, summing across label sets except the
// pop label, which partitions the output into per-PoP series.
type DerivedRule struct {
	// Name is the derived series' base name, e.g. "cache_hit_ratio".
	Name string
	// Num is the numerator counter's base name.
	Num string
	// NumLabels optionally restricts the numerator to series carrying this
	// exact label pair, e.g. `verdict="disposable"`.
	NumLabels string
	// Den is the set of denominator counter base names, summed.
	Den []string
}

func (r DerivedRule) matchNumLabels(labels string) bool {
	if r.NumLabels == "" {
		return true
	}
	key, value, _ := strings.Cut(r.NumLabels, "=")
	return telemetry.LabelValue(labels, key) == strings.Trim(value, `"`)
}

// DefaultDerived is the rule set every CLI ships with: throughput rates for
// the serve and resolve paths, the serve drop rate, the resolver cache-hit
// ratio, and the disposable-verdict share of scored queries — the paper's
// headline operational signals.
func DefaultDerived() []DerivedRule {
	return []DerivedRule{
		{Name: "serve_qps", Num: "udp_rx_packets_total"},
		{Name: "resolver_qps", Num: "resolver_queries_total"},
		{Name: "serve_drop_rate", Num: "udp_dropped_total", Den: []string{"udp_rx_packets_total"}},
		{Name: "cache_hit_ratio", Num: "resolver_cache_hits_total",
			Den: []string{"resolver_cache_hits_total", "resolver_cache_misses_total"}},
		{Name: "verdict_rate", Num: "udp_scored_total", NumLabels: `verdict="disposable"`,
			Den: []string{"udp_scored_total"}},
	}
}

func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
