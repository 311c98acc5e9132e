// Package cache implements the fixed-capacity, TTL-aware resource-record
// cache used by each simulated recursive DNS server, keyed by Key: a
// question's (name, type).
//
// The cache is the mechanism behind every caching observation in the paper:
// domain hit rates, cache hit rates, and the Section VI-A result that
// disposable domains prematurely evict useful entries. To support that last
// measurement, entries carry an opaque Category label and the cache counts
// evictions per (evicted category, inserting category) pair.
//
// The implementation is a slab-backed intrusive structure: entry payloads,
// keys included, live in a contiguous arena, and the cache's own
// open-addressed index (index.go) maps a key's hash to its slot. Both start
// small and grow with the entries, so a cache holds what its live set
// needs, not what its capacity would; the index deletes without
// tombstones, so churn through names that come and go never grows it. Two
// parallel link arenas thread through the slab: the eviction-policy order
// (policy.go — LRU by default, SIEVE selectable at construction) and the TTL
// timer wheel (wheel.go), which files every entry into a bucket for its
// expiry second so Advance reclaims whole buckets of dead entries without
// scanning live ones. Steady-state operation — hits, refreshes, reclaim,
// and evict-then-insert churn once the arena and the index have grown to
// the live set — performs no heap allocation: every structural move touches
// only a handful of int32 links and index words. Keys and values are typed
// via generics, so callers pay neither boxing nor a type assertion per
// operation, and GetName answers a question read off the wire from its
// name's bytes.
package cache

import (
	"hash/maphash"
	"sync/atomic"
	"time"

	"dnsnoise/internal/dnsmsg"
)

// Key is the DNS cache key: a normalized owner name and a query type. The
// index hashes the name's bytes and the type, so GetName finds a Key from
// the bytes of a name read off the wire, and building one is free.
type Key struct {
	Name string
	Type dnsmsg.Type
}

// Category labels a cached entry for eviction accounting. The simulation
// uses CategoryDisposable and CategoryOther, but any small set of labels
// works.
type Category uint8

// Categories used by the DNS simulation.
const (
	CategoryOther Category = iota
	CategoryDisposable
)

// String renders the category label.
func (c Category) String() string {
	switch c {
	case CategoryDisposable:
		return "disposable"
	default:
		return "other"
	}
}

// Stats counts cache events. PrematureEvictions counts policy evictions of
// entries that had NOT yet expired, split by the category of the victim and
// of the entry whose insertion forced the eviction.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Expiries   uint64 // lookups that found only an expired entry
	Insertions uint64
	Evictions  uint64 // all policy evictions (live victims only)
	Reclaims   uint64 // expired entries reclaimed by the timer wheel (Advance)
	// PrematureEvictions[victim][inserter]
	PrematureEvictions [2][2]uint64
}

// counters hold the cache's event counts as atomics, so Stats() and Len()
// may be polled (e.g. by a metrics scrape) while the owning server mutates
// the cache. The structural operations themselves remain single-owner.
type counters struct {
	hits       atomic.Uint64
	misses     atomic.Uint64
	expiries   atomic.Uint64
	insertions atomic.Uint64
	evictions  atomic.Uint64
	reclaims   atomic.Uint64
	premature  [2][2]atomic.Uint64
}

// nilIdx marks the absence of a slot in the intrusive links.
const nilIdx int32 = -1

// slot is one arena cell: the entry payload. The ordering and expiry links
// for a slot live at the same index in the policy order and timer wheel
// arenas, kept outside the generic payload so those structures are shared,
// non-generic code.
type slot[K comparable, V any] struct {
	key      K
	value    V
	expires  time.Time
	category Category
	fp       uint32 // the key's fingerprint, which files it in the index
}

// LRU is a fixed-capacity cache with per-entry TTL and a pluggable eviction
// policy (the type name predates the policy seam; the default policy is
// LRU). Structural operations (Get/PutEv/Advance) are not safe for
// concurrent use — each simulated server owns one — but Len, LiveLen and
// Stats are safe to call from other goroutines while the owner works.
type LRU[K comparable, V any] struct {
	capacity int
	slab     []slot[K, V]
	index    index
	hash     func(K) uint64
	seed     maphash.Seed // the hash's, which GetName hashes a name's bytes with
	ord      order
	pol      Policy
	whl      wheel
	free     int32 // head of the free-slot chain (linked via ord.next)
	stats    counters
	size     atomic.Int64
}

// New returns a cache holding at most capacity entries, evicting with the
// given policy. capacity < 1 is promoted to 1. The entry arena and the
// index start small and grow with the entries, the arena geometrically up
// to capacity and the index by doubling; neither is released, so once they
// have grown to the live set, steady-state operation allocates nothing.
func New[K comparable, V any](capacity int, policy PolicyKind) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	c := &LRU[K, V]{
		capacity: capacity,
		index:    newIndex(),
		seed:     maphash.MakeSeed(),
		ord:      newOrder(),
		pol:      policyFor(policy),
		free:     nilIdx,
	}
	c.hash = hasherFor[K](c.seed)
	c.whl.init()
	return c
}

// Len returns the number of entries currently stored, including any that
// have expired but not yet been reclaimed or touched.
func (c *LRU[K, V]) Len() int { return int(c.size.Load()) }

// LiveLen returns the number of stored entries not yet known to be expired:
// Len minus the entries sitting in wheel buckets wholly before the latest
// observed clock, i.e. entries awaiting reclaim because Advance lags the
// operations' timestamps. With Advance driven from the resolve path the gap
// is at most the current one-second bucket. Safe to call from a metrics
// scrape while the owner works.
func (c *LRU[K, V]) LiveLen() int {
	total := int(c.size.Load())
	w := &c.whl
	ct := w.clock.Load()
	cur := w.cur.Load()
	if ct <= cur || total == 0 {
		return total
	}
	expired := 0
	// Level-0 bucket b holds the tick t in [cur, cur+512) with t ≡ b;
	// the bucket is wholly expired once the clock passes t.
	for b := 0; b < wheelL0Size; b++ {
		n := int(w.counts[b].Load())
		if n == 0 {
			continue
		}
		t := cur + ((int64(b) - cur) & (wheelL0Size - 1))
		if t < ct {
			expired += n
		}
	}
	// Level-1 bucket j holds a 512-tick window; expired only once the
	// whole window has passed. The overflow bucket always counts live.
	curWin := cur >> wheelL0Bits
	for j := 0; j < wheelL1Size; j++ {
		n := int(w.counts[wheelL0Size+j].Load())
		if n == 0 {
			continue
		}
		win := curWin + ((int64(j) - curWin) & (wheelL1Size - 1))
		if (win+1)<<wheelL0Bits <= ct {
			expired += n
		}
	}
	// The reads above race benignly with the owner; clamp to sane bounds.
	if expired > total {
		expired = total
	}
	return total - expired
}

// Stats returns a copy of the event counters.
func (c *LRU[K, V]) Stats() Stats {
	var s Stats
	s.Hits = c.stats.hits.Load()
	s.Misses = c.stats.misses.Load()
	s.Expiries = c.stats.expiries.Load()
	s.Insertions = c.stats.insertions.Load()
	s.Evictions = c.stats.evictions.Load()
	s.Reclaims = c.stats.reclaims.Load()
	for v := range c.stats.premature {
		for i := range c.stats.premature[v] {
			s.PrematureEvictions[v][i] = c.stats.premature[v][i].Load()
		}
	}
	return s
}

// Advance moves the timer wheel up to now, reclaiming every entry whose
// expiry second has wholly passed. Each elapsed tick empties one bucket —
// dead entries are reclaimed in whole lists without examining live ones —
// so occupancy tracks live entries and eviction victims are never
// already-dead. Reclaims are counted in Stats.Reclaims; they are neither
// expiries (no lookup happened) nor evictions (no insertion forced them).
// Idle caches fast-forward in O(1). Allocates nothing.
func (c *LRU[K, V]) Advance(now time.Time) {
	w := &c.whl
	if !w.started {
		return
	}
	n := w.tickOf(now)
	if n > w.clock.Load() {
		w.clock.Store(n)
	}
	cur := w.cur.Load()
	if n <= cur {
		return
	}
	if w.count == 0 {
		w.cur.Store(n)
		return
	}
	for cur < n {
		// Every entry in tick cur's bucket has expires < base+cur+1 ≤ now.
		b := cur & (wheelL0Size - 1)
		for i := w.heads[b]; i != nilIdx; i = w.heads[b] {
			c.removeSlot(i)
			c.stats.reclaims.Add(1)
		}
		cur++
		w.cur.Store(cur)
		if cur&(wheelL0Span-1) == 0 {
			w.cascade(cur)
		}
		if w.count == 0 {
			cur = n
			w.cur.Store(n)
		}
	}
}

// Get looks up key at instant now. A present, unexpired entry counts as a
// hit and is reported to the eviction policy (LRU promotes it; SIEVE
// sets its visited bit). A present but expired entry is removed, counted
// as an expiry AND a miss (the resolver must re-fetch) — this lazy check
// backstops the wheel for the in-progress second and for callers that never
// Advance.
//
// A hit returns the entry's value where it lies in the slab, not a copy: the
// pointer stays valid until the cache's next structural operation (Get,
// GetName, PutEv, PutLowPriorityEv or Advance), which may move, refresh or
// zero the slot. A caller that keeps the value longer copies it first.
func (c *LRU[K, V]) Get(key K, now time.Time) (*V, bool) {
	if s := c.lookup(c.find(key, fingerprint(c.hash(key))), now); s != nil {
		return &s.value, true
	}
	return nil, false
}

// GetName is Get of Key{string(name), qtype} without spelling the name:
// the index hashes a Key's name as bytes, so the probe hashes and compares
// name where it lies, where a Get caller builds the key first, which
// allocates for a name longer than 32 bytes. It is a function because a
// method cannot fix its receiver's K to Key. On a hit it also returns the
// cached key's own name, which the caller may keep without a copy, and, as
// Get does, a pointer to the value that is valid only until the next
// structural operation.
func GetName[V any](c *LRU[Key, V], name []byte, qtype dnsmsg.Type, now time.Time) (cached string, v *V, ok bool) {
	fp := fingerprint(maphash.Bytes(c.seed, name) ^ typeMix(qtype))
	i, b := c.index.probe(fp, c.index.home(fp))
	for ; i != nilIdx; i, b = c.index.probe(fp, b) {
		if k := &c.slab[i].key; k.Type == qtype && k.Name == string(name) {
			break
		}
	}
	if s := c.lookup(i, now); s != nil {
		return s.key.Name, &s.value, true
	}
	return "", nil, false
}

// find returns the slot holding key, whose fingerprint is fp; nilIdx when
// the cache does not hold it.
func (c *LRU[K, V]) find(key K, fp uint32) int32 {
	i, b := c.index.probe(fp, c.index.home(fp))
	for ; i != nilIdx; i, b = c.index.probe(fp, b) {
		if c.slab[i].key == key {
			break
		}
	}
	return i
}

// lookup is what Get and GetName share after the index: slot i holds the
// key, or is nilIdx. It counts the hit, the miss or the expiry, reports a
// hit to the policy and returns its slot, valid until the next structural
// operation; nil on a miss.
func (c *LRU[K, V]) lookup(i int32, now time.Time) *slot[K, V] {
	c.whl.observe(now)
	if i == nilIdx {
		c.stats.misses.Add(1)
		return nil
	}
	s := &c.slab[i]
	if !now.Before(s.expires) {
		c.removeSlot(i)
		c.stats.expiries.Add(1)
		c.stats.misses.Add(1)
		return nil
	}
	c.pol.touch(&c.ord, i)
	c.stats.hits.Add(1)
	return s
}

// Eviction describes what an insertion displaced, for the query-level
// event log. The zero value means the insertion evicted nothing (the
// cache had room, or the key was refreshed in place).
type Eviction struct {
	Evicted   bool     // a policy victim was removed to make room
	Premature bool     // the victim had not yet expired
	Victim    Category // the victim's category (meaningful when Evicted)
}

// PutEv inserts or refreshes key with the given value, TTL and category,
// and returns the stored value and what the insertion evicted. When the
// cache is full, the eviction policy picks a victim; if that victim had not
// yet expired the eviction is counted as premature, attributed to the
// inserting entry's category.
//
// The returned pointer is the entry's slot, the one a following Get of key
// returns, and like Get's it is valid only until the cache's next
// structural operation: a caller that puts again while it still needs the
// value copies it first, since that put may evict this entry (at capacity
// 1, or when this entry sits at the cold end) and reuse its slot.
func (c *LRU[K, V]) PutEv(key K, value V, ttl time.Duration, cat Category, now time.Time) (*V, Eviction) {
	return c.put(key, value, ttl, cat, now, false)
}

// PutLowPriorityEv is PutEv at the cold end of the eviction order: under
// the default LRU policy the entry is the next eviction victim and can
// never push out another live entry (the eviction mitigation of paper
// Section VI-A — disposable answers are cached, but at the lowest
// priority). SIEVE honors the cold placement but its hand may examine other
// entries first. Refreshing an existing entry keeps it cold.
func (c *LRU[K, V]) PutLowPriorityEv(key K, value V, ttl time.Duration, cat Category, now time.Time) (*V, Eviction) {
	return c.put(key, value, ttl, cat, now, true)
}

func (c *LRU[K, V]) put(key K, value V, ttl time.Duration, cat Category, now time.Time, low bool) (*V, Eviction) {
	c.stats.insertions.Add(1)
	w := &c.whl
	if !w.started {
		w.started = true
		w.base = now.Unix()
	}
	w.observe(now)
	expires := now.Add(ttl)
	fp := fingerprint(c.hash(key))
	if i := c.find(key, fp); i != nilIdx {
		s := &c.slab[i]
		s.value = value
		s.expires = expires
		s.category = cat
		c.pol.refresh(&c.ord, i, low)
		w.unfile(i)
		w.file(i, w.tickOf(expires))
		return &s.value, Eviction{}
	}
	var ev Eviction
	if int(c.size.Load()) >= c.capacity {
		ev = c.evictOldest(cat, now)
	}
	i := c.allocSlot()
	s := &c.slab[i]
	s.key = key
	s.value = value
	s.expires = expires
	s.category = cat
	s.fp = fp
	c.pol.insert(&c.ord, i, low)
	w.file(i, w.tickOf(expires))
	c.index.insert(fp, i)
	c.size.Add(1)
	return &s.value, ev
}

// evictOldest removes the policy's victim to make room for an insertion by
// category inserter. Expired victims are reclaimed silently; live victims
// count as (premature) evictions. Either way the removal is reported so
// the query log can attribute eviction causes per query.
func (c *LRU[K, V]) evictOldest(inserter Category, now time.Time) Eviction {
	i := c.pol.victim(&c.ord)
	if i == nilIdx {
		return Eviction{}
	}
	s := &c.slab[i]
	ev := Eviction{Evicted: true, Victim: s.category, Premature: now.Before(s.expires)}
	if ev.Premature {
		c.stats.evictions.Add(1)
		c.stats.premature[s.category][inserter].Add(1)
	}
	c.removeSlot(i)
	return ev
}

// allocSlot returns a free arena index, growing the slab (and the order and
// wheel arenas in lockstep) geometrically until it reaches capacity, and no
// further: the arenas never hold room for a slot past capacity. After the
// slab is full the free chain always has a slot available, so no allocation
// ever happens again.
func (c *LRU[K, V]) allocSlot() int32 {
	if c.free != nilIdx {
		i := c.free
		c.free = c.ord.next[i]
		c.ord.next[i] = nilIdx
		return i
	}
	c.slab = appendCapped(c.slab, slot[K, V]{}, c.capacity)
	c.ord.grow(c.capacity)
	c.whl.grow(c.capacity)
	return int32(len(c.slab) - 1)
}

// appendCapped is append(s, v) for an arena that never holds more than limit
// elements: a full s grows by append's own steps (double, then a quarter
// once past 256), but to no more than limit. Callers never append past it.
func appendCapped[E any](s []E, v E, limit int) []E {
	if n := len(s); n == cap(s) {
		next := 2 * n
		if n >= 256 {
			next = n + (n+3*256)/4
		}
		t := make([]E, n, min(max(next, 4), limit))
		copy(t, s)
		s = t
	}
	return append(s, v)
}

// removeSlot unfiles slot i from the wheel and the policy order, drops its
// index entry, zeroes the payload (so the arena does not pin the evicted
// key/value for the garbage collector) and pushes the slot onto the free
// chain.
func (c *LRU[K, V]) removeSlot(i int32) {
	s := &c.slab[i]
	c.index.remove(s.fp, i)
	c.whl.unfile(i)
	c.pol.remove(&c.ord, i)
	var zero slot[K, V]
	*s = zero
	c.ord.next[i] = c.free
	c.free = i
	c.size.Add(-1)
}
