// Package chrstat implements the paper's black-box cache measurements
// (Section III-C): per-resource-record daily query and miss counts gathered
// from the below/above observation streams, the domain hit rate
//
//	DHR(rr) = cache hits in a day / total queries in a day        (eq. 1)
//
// and the cache hit rate distribution, where each RR contributes its DHR
// once per cache miss
//
//	CHR_i(rr) = DHR(rr), i = 1..(misses in a day)                 (eq. 2)
//
// The collector treats the resolver cluster exactly as the paper treats the
// ISP's: a black box observed only from its two sides.
package chrstat

import (
	"hash/maphash"
	"slices"
	"sync"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/slab"
)

// maxTrackedClients caps per-record client-set tracking; the paper's claim
// is that disposable names are queried by a HANDFUL of clients, so exact
// counts only matter at the low end.
const maxTrackedClients = 64

// inlineClients is how many client ids a record holds in place. Most records
// never see more, and so never own anything on the heap.
const inlineClients = 4

// clientBlock holds a record's client ids past the inline ones, blockClients
// at a time, chained in arrival order: 64 bytes, 127 to a slab chunk.
type clientBlock struct {
	ids  [blockClients]uint32
	next *clientBlock
}

const blockClients = 14

// RRStat is the daily accounting for one distinct resource record.
type RRStat struct {
	Name     string
	Type     dnsmsg.Type
	TTL      uint32
	RData    dnsmsg.RData
	Below    uint64 // answers observed below (total queries for the RR)
	Above    uint64 // answers observed above (cache misses)
	Category cache.Category

	// The distinct clients seen, in arrival order: the first inlineClients
	// in clients, the rest in the chain of blocks from more, nclients in all.
	// Sets are small (at most maxTrackedClients), so membership is a scan.
	clientsOverflow bool
	nclients        uint8
	clients         [inlineClients]uint32
	epoch           uint32 // the refresh epoch that last touched the record; in padding
	more            *clientBlock

	next *RRStat // the owner name's next record in a collector, in first-seen order
}

// is reports whether s, a record of the name in question, is the one of type
// t with payload d: name, type and rdata are a record's identity, TTL is not.
func (s *RRStat) is(t dnsmsg.Type, d dnsmsg.RData) bool { return s.Type == t && s.RData == d }

// Clients returns the number of distinct clients observed querying the
// record, and whether the count saturated the tracking cap (64).
func (s *RRStat) Clients() (n int, saturated bool) {
	return int(s.nclients), s.clientsOverflow
}

// inlineIDs returns the ids held in place.
func (s *RRStat) inlineIDs() []uint32 {
	return s.clients[:min(int(s.nclients), inlineClients)]
}

// trackClient adds id to the record's client set, cutting a block from
// blocks when the chain's last is full: id number p past the inline ones
// goes in block p/blockClients at p%blockClients.
func (s *RRStat) trackClient(id uint32, blocks *slab.Slab[clientBlock]) {
	if s.clientsOverflow || slices.Contains(s.inlineIDs(), id) {
		return
	}
	n := int(s.nclients)
	var last *clientBlock
	for b, left := s.more, n-inlineClients; b != nil; b, left = b.next, left-blockClients {
		if slices.Contains(b.ids[:min(left, blockClients)], id) {
			return
		}
		last = b
	}
	switch p := n - inlineClients; {
	case n >= maxTrackedClients:
		s.clientsOverflow = true
		return
	case p < 0:
		s.clients[n] = id
	default:
		if p%blockClients == 0 {
			b := blocks.New()
			if last == nil {
				s.more = b
			} else {
				last.next = b
			}
			last = b
		}
		last.ids[p%blockClients] = id
	}
	s.nclients++
}

// DHR returns the record's domain hit rate. Records observed above more
// often than below (possible when a prefetch-style fetch never reaches a
// client) clamp to 0.
func (s *RRStat) DHR() float64 {
	if s.Below == 0 {
		return 0
	}
	hits := int64(s.Below) - int64(s.Above)
	if hits <= 0 {
		return 0
	}
	return float64(hits) / float64(s.Below)
}

// Misses returns the number of cache misses attributed to the record.
func (s *RRStat) Misses() uint64 { return s.Above }

// Collector accumulates one observation window (typically a day), indexed by
// owner name: a name is hashed once, and its records — one or two as a rule,
// nine at most on the benchmark's days — are told apart by walking them. The
// names' entries are numbered in the collector's slab chunks and filed by
// number in its index, under the fingerprints they keep, so a fold files a
// shard's names without hashing them again. It is not safe for concurrent
// use, which is what lets it remember the last name it looked up: the
// above-then-below pair of a cache miss and every further record of a
// multi-record answer find their name without touching the index.
type Collector struct {
	index   slab.Index           // the names: each entry's number, under its fingerprint
	entries slab.Slab[nameEntry] // in first-seen order
	records int                  // distinct records, over all names

	last *nameEntry // the entry last looked up

	slab   slab.Slab[RRStat]
	blocks slab.Slab[clientBlock] // the records' spilled client ids

	// epoch is zero until a Counts view attaches; then touched lists a record
	// the first time an epoch observes it, and a refresh starts the next.
	epoch   uint32
	touched []touchedRecord

	belowTotal uint64 // all below observations, incl. NXDOMAIN
	aboveTotal uint64
	belowNX    uint64
	aboveNX    uint64
}

// nameEntry is what a collector knows of one name: the name and its
// fingerprint, whether it was queried below, and the records it owns,
// chained through RRStat.next. A name that only ever failed has no record;
// one that was only a CNAME target or was only seen above was not queried.
// An entry a fold found a name for in the collector it folded into is
// zeroed: no name, no record.
type nameEntry struct {
	name    string
	head    *RRStat
	fp      uint32
	queried bool
}

// seed keys the names' hash, one for every collector, so that a fold
// compares the fingerprints two collectors keep.
var seed = maphash.MakeSeed()

// fingerprint is what an index files name under.
func fingerprint(name string) uint32 { return slab.Fingerprint(maphash.String(seed, name)) }

// resolved reports whether some record of the name was answered below.
func (e *nameEntry) resolved() bool {
	for st := e.head; st != nil; st = st.next {
		if st.Below > 0 {
			return true
		}
	}
	return false
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return NewCollectorSize(0) }

// NewCollectorSize returns an empty collector with room for names names, so
// that a window sized from the last one's NumNames does not regrow its
// index.
func NewCollectorSize(names int) *Collector {
	c := &Collector{}
	c.index.Reserve(names)
	return c
}

// ObserveBelow accumulates one below-side observation. Exported so the
// collector satisfies the ingest pipeline's observation-sink contract.
func (c *Collector) ObserveBelow(ob resolver.Observation) {
	c.belowTotal++
	if ob.QName != "" {
		c.entry(ob.QName).queried = true
	}
	if ob.RCode != dnsmsg.RCodeNoError {
		c.belowNX++
		return
	}
	if ob.RR.Name == "" {
		return // NODATA
	}
	st := c.stat(ob.RR, ob.Category)
	st.Below++
	st.trackClient(ob.ClientID, &c.blocks)
}

// ObserveAbove accumulates one above-side observation.
func (c *Collector) ObserveAbove(ob resolver.Observation) {
	c.aboveTotal++
	if ob.RCode != dnsmsg.RCodeNoError {
		c.aboveNX++
		return
	}
	if ob.RR.Name == "" {
		return
	}
	st := c.stat(ob.RR, ob.Category)
	st.Above++
}

// entry returns name's entry, new if the name is.
func (c *Collector) entry(name string) *nameEntry {
	if c.last != nil && c.last.name == name {
		return c.last
	}
	fp := fingerprint(name)
	e := c.find(name, fp)
	if e == nil {
		var i int32
		i, e = c.entries.Add()
		e.name, e.fp = name, fp
		c.index.Insert(fp, i)
	}
	c.last = e
	return e
}

// find returns the entry of name, whose fingerprint is fp; nil if the
// collector has none.
func (c *Collector) find(name string, fp uint32) *nameEntry {
	for i, b := c.index.Probe(fp, c.index.Home(fp)); i != slab.Nil; i, b = c.index.Probe(fp, b) {
		if e := c.entries.At(i); e.name == name {
			return e
		}
	}
	return nil
}

// find returns the name's record of type t with payload d, nil if it has
// none, and the link that holds it — or that a new one is to hang from.
func (e *nameEntry) find(t dnsmsg.Type, d dnsmsg.RData) (st *RRStat, link **RRStat) {
	for link = &e.head; *link != nil && !(*link).is(t, d); link = &(*link).next {
	}
	return *link, link
}

// stat returns rr's record, new (and last of its name's) if rr is.
func (c *Collector) stat(rr dnsmsg.RR, cat cache.Category) *RRStat {
	st, link := c.entry(rr.Name).find(rr.Type, rr.RData)
	if st == nil {
		st = c.slab.New()
		st.Name, st.Type, st.TTL, st.RData, st.Category = rr.Name, rr.Type, rr.TTL, rr.RData, cat
		*link = st
		c.records++
	}
	if st.epoch != c.epoch {
		st.epoch = c.epoch
		c.touched = append(c.touched, touchedRecord{st, st.Below, st.Above})
	}
	return st
}

// lookup returns the collector's record of that identity, nil if it has none.
func (c *Collector) lookup(name string, t dnsmsg.Type, d dnsmsg.RData) (st *RRStat) {
	if e := c.find(name, fingerprint(name)); e != nil {
		st, _ = e.find(t, d)
	}
	return st
}

// all yields every record, a name's records together and in first-seen
// order, the names in the order of their entries.
func (c *Collector) all(yield func(*RRStat) bool) {
	for _, e := range c.entries.All {
		for st := e.head; st != nil; st = st.next {
			if !yield(st) {
				return
			}
		}
	}
}

// Records returns every distinct RR's stats, in the order all yields them.
func (c *Collector) Records() []*RRStat {
	out := make([]*RRStat, 0, c.records)
	for st := range c.all {
		out = append(out, st)
	}
	return out
}

// NumRecords returns the count of distinct resource records observed.
func (c *Collector) NumRecords() int { return c.records }

// NumNames returns the count of distinct names observed: queried, answered
// or seen above.
func (c *Collector) NumNames() int { return c.index.Len() }

// ByName returns the records grouped by owner name, which is how the
// collector holds them: a name's records in first-seen order, in one slice
// cut from an array that holds them all.
func (c *Collector) ByName() map[string][]*RRStat {
	out := make(map[string][]*RRStat, c.NumNames()) // a few too many: names that only failed own nothing
	flat := make([]*RRStat, 0, c.records)
	for _, e := range c.entries.All {
		if e.head == nil {
			continue
		}
		start := len(flat)
		for st := e.head; st != nil; st = st.next {
			flat = append(flat, st)
		}
		out[e.name] = flat[start:len(flat):len(flat)]
	}
	return out
}

// Totals reports the raw observation volumes: (below, above) including
// negatives, and the NXDOMAIN portions of each.
func (c *Collector) Totals() (below, above, belowNX, aboveNX uint64) {
	return c.belowTotal, c.aboveTotal, c.belowNX, c.aboveNX
}

// QueriedNames returns the number of distinct names queried below
// (successful or not) and how many of them satisfy pred (pass nil to skip).
func (c *Collector) QueriedNames(pred func(string) bool) (total, matching int) {
	return c.countNames(func(e *nameEntry) bool { return e.queried }, pred)
}

// ResolvedNames is QueriedNames over successfully resolved names (including
// CNAME targets, as in the rpDNS dataset).
func (c *Collector) ResolvedNames(pred func(string) bool) (total, matching int) {
	return c.countNames((*nameEntry).resolved, pred)
}

func (c *Collector) countNames(in func(*nameEntry) bool, pred func(string) bool) (total, matching int) {
	for _, e := range c.entries.All {
		if !in(e) {
			continue
		}
		total++
		if pred != nil && pred(e.name) {
			matching++
		}
	}
	return total, matching
}

// DHRSample returns each record's domain hit rate, one value per distinct
// RR, optionally filtered by pred over the record.
func (c *Collector) DHRSample(pred func(*RRStat) bool) []float64 {
	out := make([]float64, 0, c.records)
	for st := range c.all {
		if pred != nil && !pred(st) {
			continue
		}
		out = append(out, st.DHR())
	}
	return out
}

// CHRSample returns the paper's cache-hit-rate sample: each record's DHR
// repeated once per cache miss (eq. 2). Records with zero observed misses
// contribute nothing, mirroring the renewal-process framing. perRRCap > 0
// bounds any single record's contribution to keep hot records from
// swamping the distribution sample; pass 0 for no cap.
func (c *Collector) CHRSample(pred func(*RRStat) bool, perRRCap int) []float64 {
	var out []float64
	for st := range c.all {
		if pred != nil && !pred(st) {
			continue
		}
		n := int(st.Misses())
		if perRRCap > 0 && n > perRRCap {
			n = perRRCap
		}
		dhr := st.DHR()
		for i := 0; i < n; i++ {
			out = append(out, dhr)
		}
	}
	return out
}

// ClientCounts returns each record's distinct-client count as float64
// (capped at 64), optionally filtered — the measurement behind the paper's
// "queried a few times by a handful of clients".
func (c *Collector) ClientCounts(pred func(*RRStat) bool) []float64 {
	out := make([]float64, 0, c.records)
	for st := range c.all {
		if pred != nil && !pred(st) {
			continue
		}
		n, _ := st.Clients()
		out = append(out, float64(n))
	}
	return out
}

// LookupVolumes returns each record's below-query count as float64,
// optionally filtered.
func (c *Collector) LookupVolumes(pred func(*RRStat) bool) []float64 {
	out := make([]float64, 0, c.records)
	for st := range c.all {
		if pred != nil && !pred(st) {
			continue
		}
		out = append(out, float64(st.Below))
	}
	return out
}

// TailStats summarizes a long-tail membership question: of all records, how
// many sit in the tail (inTail), how many of those are disposable, and what
// fraction of all disposable records are in the tail. Used for Tables I
// and II.
type TailStats struct {
	Records            int
	Tail               int
	TailDisposable     int
	Disposable         int
	DisposableInTail   int
	TailFrac           float64 // Tail / Records
	TailDisposableFrac float64 // TailDisposable / Tail
	DisposableTailFrac float64 // DisposableInTail / Disposable
}

// Tail computes TailStats for the records satisfying inTail.
func (c *Collector) Tail(inTail func(*RRStat) bool) TailStats {
	var ts TailStats
	for st := range c.all {
		ts.Records++
		disp := st.Category == cache.CategoryDisposable
		if disp {
			ts.Disposable++
		}
		if inTail(st) {
			ts.Tail++
			if disp {
				ts.TailDisposable++
				ts.DisposableInTail++
			}
		}
	}
	if ts.Records > 0 {
		ts.TailFrac = float64(ts.Tail) / float64(ts.Records)
	}
	if ts.Tail > 0 {
		ts.TailDisposableFrac = float64(ts.TailDisposable) / float64(ts.Tail)
	}
	if ts.Disposable > 0 {
		ts.DisposableTailFrac = float64(ts.DisposableInTail) / float64(ts.Disposable)
	}
	return ts
}

// hourlyShardCount is the counter's lock-stripe count (power of two, so
// the shard pick is a mask).
const hourlyShardCount = 16

// HourlyCounter buckets observation volumes by hour for the Figure 2
// traffic profile. Series membership is decided by predicates over the
// observation. The tap is lock-striped by an FNV-1a hash of the queried
// name, so a cluster's concurrent per-server workers rarely contend on one
// mutex; per-(series, hour) volumes are sums, so the merged read-side view
// (Series) is identical whether observations arrived sequentially or in
// parallel.
type HourlyCounter struct {
	series []hourlySeries
	shards [hourlyShardCount]hourlyShard
}

type hourlySeries struct {
	name string
	pred func(resolver.Observation) bool
}

// hourlyShard is one lock stripe: a per-series map of unix hour -> volume.
type hourlyShard struct {
	mu     sync.Mutex
	counts []map[int64]uint64 // indexed like HourlyCounter.series
}

// NewHourlyCounter builds a counter with named series. The predicate for
// the catch-all series can simply return true.
func NewHourlyCounter() *HourlyCounter { return &HourlyCounter{} }

// AddSeries registers a named series counted when pred matches.
// Must be called before observations arrive.
func (h *HourlyCounter) AddSeries(name string, pred func(resolver.Observation) bool) {
	h.series = append(h.series, hourlySeries{name: name, pred: pred})
	for i := range h.shards {
		h.shards[i].counts = append(h.shards[i].counts, make(map[int64]uint64))
	}
}

// Tap returns a resolver tap feeding the counter. Safe for concurrent use;
// observations for names hashing to different stripes count in parallel.
func (h *HourlyCounter) Tap() resolver.Tap {
	return resolver.TapFunc(func(ob resolver.Observation) {
		hour := ob.Time.Unix() / 3600
		sh := &h.shards[dnsname.Hash(ob.QName)&(hourlyShardCount-1)]
		sh.mu.Lock()
		for i := range h.series {
			if h.series[i].pred(ob) {
				sh.counts[i][hour]++
			}
		}
		sh.mu.Unlock()
	})
}

// Series returns the hourly counts for the named series as (unixHour,
// volume) pairs sorted by hour, or nil when the series is unknown. The
// per-stripe maps are merged by summing each hour's volume.
func (h *HourlyCounter) Series(name string) []HourPoint {
	for i := range h.series {
		if h.series[i].name != name {
			continue
		}
		merged := make(map[int64]uint64)
		for s := range h.shards {
			sh := &h.shards[s]
			sh.mu.Lock()
			for hour, v := range sh.counts[i] {
				merged[hour] += v
			}
			sh.mu.Unlock()
		}
		pts := make([]HourPoint, 0, len(merged))
		for hour, v := range merged {
			pts = append(pts, HourPoint{UnixHour: hour, Volume: v})
		}
		sortHourPoints(pts)
		return pts
	}
	return nil
}

// SeriesNames lists the registered series in registration order.
func (h *HourlyCounter) SeriesNames() []string {
	out := make([]string, len(h.series))
	for i := range h.series {
		out[i] = h.series[i].name
	}
	return out
}

// HourPoint is one hourly volume sample.
type HourPoint struct {
	UnixHour int64
	Volume   uint64
}

func sortHourPoints(pts []HourPoint) {
	// Insertion sort: series are near-sorted already (hours accumulate in
	// time order) and tiny.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j].UnixHour < pts[j-1].UnixHour; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}
