// Package pdns implements the passive DNS collection systems of
// Section III-A and Section VI-C: the rpDNS deduplicated resource-record
// store with first-seen tracking, per-day new-RR accounting, storage-cost
// estimation, and the wildcard-collapse mitigation that folds disposable
// records under a single synthetic wildcard owner.
package pdns

import (
	"sort"
	"sync"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/slab"
	"dnsnoise/internal/telemetry"
)

// Record is one deduplicated rpDNS entry: the (name, type, rdata) tuple
// plus the instant it was first observed. It is 64 bytes, 127 to a slab
// chunk: the first sighting is kept as Unix nanoseconds, not a time.Time
// (24 bytes), and the small fields go last, where they share one word.
type Record struct {
	Name      string
	RData     dnsmsg.RData
	firstSeen int64 // Unix nanoseconds

	next *Record // the owner name's next record in its store, in first-seen order

	Type     dnsmsg.Type
	Category cache.Category
}

// FirstSeen returns the instant the record was first observed, in UTC.
func (r *Record) FirstSeen() time.Time { return time.Unix(0, r.firstSeen).UTC() }

// DayCounts summarizes the newly observed records of one calendar day.
type DayCounts struct {
	Date       time.Time
	New        int
	Disposable int
	// PerSeries holds counts for each matcher registered with AddSeries,
	// in registration order.
	PerSeries []int
}

// numShards is the store's lock-stripe count. Power of two so the shard
// pick is a mask; 32 stripes keep the probability of two cluster workers
// colliding on one mutex low even at high server counts.
const numShards = 32

// shard is one lock stripe: its own dedup index and per-day accounting, so
// concurrent inserts for different name hashes never contend. The index is by
// owner name, like the CHR collector's: a name leads to its first record and
// the rest chain from it, so a lookup hashes the name and walks the two or
// three records it owns. The records are cut from the stripe's slab, and a
// store never frees one, so a *Record stays valid as long as the store.
type shard struct {
	mu     sync.Mutex
	byName map[string]*Record
	n      int                  // records, over all names
	days   map[int64]*DayCounts // unix day -> counts
	recs   slab.Slab[Record]
}

// record returns the shard's record of rr's (name, type, rdata), which it
// appends to the name's chain when it has none.
func (sh *shard) record(rr dnsmsg.RR) (rec *Record, added bool) {
	var last *Record
	for rec = sh.byName[rr.Name]; rec != nil; rec = rec.next {
		if rec.Type == rr.Type && rec.RData == rr.RData {
			return rec, false
		}
		last = rec
	}
	rec = sh.recs.New()
	rec.Name, rec.Type, rec.RData = rr.Name, rr.Type, rr.RData
	if last == nil {
		sh.byName[rr.Name] = rec
	} else {
		last.next = rec
	}
	sh.n++
	return rec, true
}

// Store is the rpDNS database. It consumes the below-the-resolver stream
// (successful resolutions only, like the paper's rpDNS) and deduplicates
// records by (name, type, rdata).
//
// The store is striped into numShards independently locked shards by an
// FNV-1a hash of the owner name, so a cluster's concurrent per-server
// workers insert without funneling through a single mutex; dedup means most
// observations take their stripe's lock only for a map lookup. Readers
// (Len, Records, Days, ...) merge a view across the stripes and may run
// while insertion is in flight.
type Store struct {
	shards   [numShards]shard
	seriesFn []func(*Record) bool

	// Telemetry counters; nil (no-op) unless SetMetrics was called.
	mInserts *telemetry.Counter
	mDups    *telemetry.Counter
}

// SetMetrics registers the store's live metrics with reg: insert and
// duplicate counters plus gauges for the deduplicated record count and the
// estimated storage footprint. Call before observations arrive.
func (s *Store) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.mInserts = reg.Counter("pdns_inserts_total",
		"New deduplicated records appended to the rpDNS store.")
	s.mDups = reg.Counter("pdns_duplicates_total",
		"Observations dropped as already-known (name, type, rdata) tuples.")
	reg.GaugeFunc("pdns_records",
		"Deduplicated records currently stored.",
		func() float64 { return float64(s.Len()) })
	reg.GaugeFunc("pdns_storage_bytes",
		"Estimated storage footprint of the store.",
		func() float64 { return float64(s.StorageBytes()) })
}

// NewStore returns an empty rpDNS database.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].byName = make(map[string]*Record)
		s.shards[i].days = make(map[int64]*DayCounts)
	}
	return s
}

// shardFor maps an owner name to its lock stripe.
func (s *Store) shardFor(name string) *shard {
	return &s.shards[dnsname.Hash(name)&(numShards-1)]
}

// all yields every record, stripe by stripe under the stripe's lock: the loop
// body must not insert.
func (s *Store) all(yield func(*Record) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, rec := range sh.byName {
			for ; rec != nil; rec = rec.next {
				if !yield(rec) {
					sh.mu.Unlock()
					return
				}
			}
		}
		sh.mu.Unlock()
	}
}

// AddSeries registers a per-day matcher, counted in DayCounts.PerSeries at
// its registration index. Must be called before observations arrive.
func (s *Store) AddSeries(pred func(*Record) bool) {
	s.seriesFn = append(s.seriesFn, pred)
}

// Tap returns the below-side resolver tap feeding the store.
func (s *Store) Tap() resolver.Tap {
	return resolver.TapFunc(func(ob resolver.Observation) {
		if ob.RCode != dnsmsg.RCodeNoError || ob.RR.Name == "" {
			return // rpDNS excludes unsuccessful resolutions
		}
		s.Insert(ob.RR, ob.Category, ob.Time)
	})
}

// Insert records one observed RR at instant at. Duplicate tuples are
// ignored; the first sighting wins. Safe for concurrent use; inserts for
// names hashing to different stripes proceed in parallel.
func (s *Store) Insert(rr dnsmsg.RR, cat cache.Category, at time.Time) {
	sh := s.shardFor(rr.Name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, added := sh.record(rr)
	if !added {
		s.mDups.Inc()
		return
	}
	s.mInserts.Inc()
	rec.firstSeen, rec.Category = at.UnixNano(), cat
	s.countNew(sh, rec)
}

// countNew enters rec in its first day's accounting; the caller holds sh's
// lock.
func (s *Store) countNew(sh *shard, rec *Record) {
	day := rec.FirstSeen().Unix() / 86400
	dc, ok := sh.days[day]
	if !ok {
		dc = &DayCounts{
			Date:      time.Unix(day*86400, 0).UTC(),
			PerSeries: make([]int, len(s.seriesFn)),
		}
		sh.days[day] = dc
	}
	dc.New++
	if rec.Category == cache.CategoryDisposable {
		dc.Disposable++
	}
	for i, pred := range s.seriesFn {
		if pred(rec) {
			dc.PerSeries[i]++
		}
	}
}

// Len returns the number of distinct records stored.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// DisposableCount returns how many stored records are disposable.
func (s *Store) DisposableCount() int {
	n := 0
	for rec := range s.all {
		if rec.Category == cache.CategoryDisposable {
			n++
		}
	}
	return n
}

// Days returns per-day new-record counts sorted by date, merged across the
// stripes. The merge is a per-day sum, so the result is identical whether
// the inserts arrived sequentially or from concurrent workers.
func (s *Store) Days() []DayCounts {
	merged := make(map[int64]*DayCounts)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for day, dc := range sh.days {
			m, ok := merged[day]
			if !ok {
				m = &DayCounts{
					Date:      dc.Date,
					PerSeries: make([]int, len(dc.PerSeries)),
				}
				merged[day] = m
			}
			m.New += dc.New
			m.Disposable += dc.Disposable
			for j, v := range dc.PerSeries {
				m.PerSeries[j] += v
			}
		}
		sh.mu.Unlock()
	}
	out := make([]DayCounts, 0, len(merged))
	for _, dc := range merged {
		out = append(out, *dc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Date.Before(out[j].Date) })
	return out
}

// Records returns all stored records; order is undefined.
func (s *Store) Records() []*Record {
	out := make([]*Record, 0, s.Len())
	for rec := range s.all {
		out = append(out, rec)
	}
	return out
}

// StorageBytes estimates the database's storage cost as the sum of tuple
// sizes: name + rdata + fixed overhead per record (type, timestamp, index).
func (s *Store) StorageBytes() uint64 {
	const overhead = 24
	var total uint64
	for rec := range s.all {
		total += uint64(len(rec.Name) + rec.RData.TextLen(rec.Type) + overhead)
	}
	return total
}

// CollapseResult reports the effect of the wildcard mitigation.
type CollapseResult struct {
	Before     int // distinct records before collapsing
	After      int // distinct records after collapsing
	Collapsed  int // records folded into wildcards
	Wildcards  int // distinct wildcard owners created
	BytesAfter uint64
}

// DisposableRatio returns Wildcards/Collapsed: how many records the folded
// (disposable) population shrinks to. This is the paper's headline metric —
// 129,674,213 disposable RRs reduced to 945,065 wildcards (0.7%).
func (r CollapseResult) DisposableRatio() float64 {
	if r.Collapsed == 0 {
		return 0
	}
	return float64(r.Wildcards) / float64(r.Collapsed)
}

// CollapseWildcards applies the Section VI-C mitigation: every record whose
// owner name maps (via zoneOf) to a known disposable zone is replaced by a
// single "*.<zone>" wildcard record; all other records are kept verbatim.
// zoneOf returns the covering disposable zone and true, or false when the
// name is not under any mined disposable zone. The stripes are visited one
// at a time under their own locks; the wildcard set is global, so a zone
// whose children spread across stripes still collapses to one owner.
func (s *Store) CollapseWildcards(zoneOf func(name string) (string, bool)) CollapseResult {
	var res CollapseResult
	wildcards := make(map[string]struct{})
	kept := 0
	var keptBytes uint64
	const overhead = 24
	for rec := range s.all {
		res.Before++
		zone, ok := zoneOf(rec.Name)
		if !ok {
			kept++
			keptBytes += uint64(len(rec.Name) + rec.RData.TextLen(rec.Type) + overhead)
			continue
		}
		res.Collapsed++
		owner := "*." + zone
		if _, seen := wildcards[owner]; !seen {
			wildcards[owner] = struct{}{}
			keptBytes += uint64(len(owner) + overhead)
		}
	}
	res.Wildcards = len(wildcards)
	res.After = kept + res.Wildcards
	res.BytesAfter = keptBytes
	return res
}
