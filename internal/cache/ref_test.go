package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/slab"
)

// refEntry is the naive reference model: a map of key → (value, expiry,
// category) with no capacity bound and timestamp checks on every lookup.
type refEntry struct {
	val int
	exp time.Time
	cat Category
}

// peek reads key's slot without reporting it to the policy or counting a
// lookup. The slot may hold an expired entry the wheel has not reclaimed.
// valueOf copies the value out of a Get result, the zero value on a miss.
func valueOf[V any](v *V, ok bool) (V, bool) {
	if !ok {
		var zero V
		return zero, false
	}
	return *v, true
}

func peek[K comparable, V any](c *LRU[K, V], key K) (slot[K, V], bool) {
	i := c.find(key, slab.Fingerprint(c.hash(key)))
	if i == nilIdx {
		return slot[K, V]{}, false
	}
	return c.slab[i], true
}

// TestReferenceModelProperty drives every policy with a randomized op
// sequence — PutEv/PutLowPriorityEv/Get/Advance over skewed keys and mixed
// TTLs, with occasional direct reads of a key's slot — and cross-checks each
// observation against the reference.
//
// With capacity ≥ the key universe nothing is ever evicted, so the cache
// must agree with the model exactly: Get hits iff the model holds an
// unexpired entry, with the same value. With a small capacity evictions are
// policy-specific, so the check weakens to soundness: whatever the cache
// returns must match the model, and occupancy stays within capacity.
//
// The churn sequence is the index's worst case: a tiny cache, thousands of
// keys drawn evenly, TTLs of a few seconds that Advance reclaims in bulk,
// and a hash that files every key in one of four runs under one of twenty
// fingerprints, so removals shift long runs that wrap around the table.
//
// After every operation of every sequence the index must agree with the
// arena (checkIndex), and the model drops the keys the cache no longer
// holds: each must have expired, or be the one victim of an evicting put.
func TestReferenceModelProperty(t *testing.T) {
	for _, kind := range Policies() {
		for _, cfg := range []refConfig{
			{name: "unbounded", capacity: 64 + 8, keys: 64, exact: true},
			{name: "pressured", capacity: 64 / 4, keys: 64},
			{name: "churn", capacity: 16, keys: 4096, churn: true},
		} {
			t.Run(kind.String()+"/"+cfg.name, func(t *testing.T) {
				runReferenceModel(t, kind, cfg)
			})
		}
	}
}

// refConfig is one reference-model sequence.
type refConfig struct {
	name     string
	capacity int
	keys     int  // the key universe
	exact    bool // capacity holds every key: nothing is evicted
	churn    bool // even keys, short TTLs, long hops, colliding hashes
}

// checkIndex holds the index to the arena: every occupied slot's key is
// found at that slot, and the index files one entry per stored entry (that
// its count is its occupied buckets' is slab.TestIndexMatchesMap's to show).
func checkIndex[K comparable, V any](c *LRU[K, V]) error {
	free := make(map[int32]bool)
	for i := c.free; i != nilIdx; i = c.ord.next[i] {
		free[i] = true
	}
	if stored := len(c.slab) - len(free); stored != c.Len() || c.index.Len() != c.Len() {
		return fmt.Errorf("index holds %d entries, arena %d, Len %d", c.index.Len(), stored, c.Len())
	}
	for i := range c.slab {
		if free[int32(i)] {
			continue
		}
		if k := c.slab[i].key; c.find(k, slab.Fingerprint(c.hash(k))) != int32(i) {
			return fmt.Errorf("slot %d's key %v is not found at it", i, k)
		}
	}
	return nil
}

func runReferenceModel(t *testing.T, kind PolicyKind, cfg refConfig) {
	t.Helper()
	rng := rand.New(rand.NewSource(0xD15C0))
	c := New[string, int](cfg.capacity, kind)
	if cfg.churn {
		c.hash = func(k string) uint64 {
			h := dnsname.Hash(k)
			return h%4<<62 | h%5<<32
		}
	}
	model := make(map[string]refEntry)
	keys := make([]string, cfg.keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("name%d", i)
	}
	// Zipf-ish skew: low indices are hot.
	pick := func() string {
		i := rng.Intn(cfg.keys)
		if !cfg.churn && rng.Intn(4) != 0 {
			i = rng.Intn(1 + i/4)
		}
		return keys[i]
	}
	maxTTL, maxHop := 600, 2500
	if cfg.churn {
		maxTTL, maxHop = 4, 400
	}
	exact, capacity := cfg.exact, cfg.capacity
	now := t0
	modelLive := func(k string) (refEntry, bool) {
		e, ok := model[k]
		if !ok || !now.Before(e.exp) {
			return refEntry{}, false
		}
		return e, true
	}
	for op := 0; op < 20000; op++ {
		// Time moves forward in uneven sub-second to multi-second hops.
		now = now.Add(time.Duration(rng.Intn(maxHop)) * time.Millisecond)
		k := pick()
		var ev Eviction
		switch rng.Intn(10) {
		case 0, 1, 2: // PutEv
			v := rng.Int()
			ttl := time.Duration(1+rng.Intn(maxTTL)) * time.Second
			cat := Category(rng.Intn(2))
			if _, ev = c.PutEv(k, v, ttl, cat, now); exact && ev != (Eviction{}) {
				t.Fatalf("op %d: PutEv(%s) evicted %+v below capacity", op, k, ev)
			}
			model[k] = refEntry{val: v, exp: now.Add(ttl), cat: cat}
		case 3: // PutLowPriorityEv
			v := rng.Int()
			ttl := time.Duration(1+rng.Intn(min(maxTTL, 30))) * time.Second
			if _, ev = c.PutLowPriorityEv(k, v, ttl, CategoryDisposable, now); exact && ev != (Eviction{}) {
				t.Fatalf("op %d: PutLowPriorityEv(%s) evicted %+v below capacity", op, k, ev)
			}
			model[k] = refEntry{val: v, exp: now.Add(ttl), cat: CategoryDisposable}
		case 4: // Advance
			c.Advance(now)
		default: // Get + an occasional read of the slot
			v, ok := valueOf(c.Get(k, now))
			ref, live := modelLive(k)
			if ok {
				if v != ref.val || !live {
					t.Fatalf("op %d: Get(%s) = (%d, true) disagrees with model (%+v, live=%v)", op, k, v, ref, live)
				}
			} else if exact && live {
				t.Fatalf("op %d: Get(%s) missed but model holds live entry %+v", op, k, ref)
			}
			if rng.Intn(8) == 0 {
				e, ok := peek(c, k)
				if ok {
					m, inModel := model[k]
					if !inModel || e.value != m.val || !e.expires.Equal(m.exp) || e.category != m.cat {
						t.Fatalf("op %d: slot of %s = %+v disagrees with model %+v (present=%v)", op, k, e, m, inModel)
					}
				} else if exact {
					if _, live := modelLive(k); live {
						t.Fatalf("op %d: no slot for %s but model holds a live entry", op, k)
					}
				}
			}
		}
		if c.Len() > capacity {
			t.Fatalf("op %d: Len %d exceeds capacity %d", op, c.Len(), capacity)
		}
		if err := checkIndex(c); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		evicted := 0
		for mk, e := range model {
			if _, ok := peek(c, mk); ok {
				continue
			}
			if now.Before(e.exp) {
				if evicted++; !ev.Evicted || evicted > 1 {
					t.Fatalf("op %d: the cache lost %s, live in the model (%+v), after %+v", op, mk, e, ev)
				}
			}
			delete(model, mk)
		}
		if ll, l := c.LiveLen(), c.Len(); ll < 0 || ll > l {
			t.Fatalf("op %d: LiveLen %d outside [0, Len=%d]", op, ll, l)
		}
	}
	// Final sweep in the exact configuration: every live model entry must
	// still be servable, and occupancy must equal the model entries the
	// wheel retains (expiry second not wholly passed — the wheel works at
	// one-second granularity, the lazy Get check below it).
	if exact {
		now = now.Add(2 * time.Second)
		c.Advance(now)
		retained := 0
		for _, e := range model {
			if e.exp.Unix() >= now.Unix() {
				retained++
			}
		}
		if c.Len() != retained {
			t.Fatalf("final: Len = %d, want %d wheel-retained model entries", c.Len(), retained)
		}
		for k, e := range model {
			if !now.Before(e.exp) {
				continue
			}
			v, ok := valueOf(c.Get(k, now))
			if !ok || v != e.val {
				t.Fatalf("final: Get(%s) = (%d, %v), model %+v", k, v, ok, e)
			}
		}
	}
}
