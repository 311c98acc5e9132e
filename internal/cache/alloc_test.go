package cache

import (
	"fmt"
	"testing"
	"time"

	"dnsnoise/internal/dnsmsg"
)

// TestGetZeroAlloc: a hit — lookup plus promotion to most-recently-used —
// must not allocate. This is the slab design's core claim: promotion only
// rewrites int32 links in the arena.
func TestGetZeroAlloc(t *testing.T) {
	c := New[string, int](64, PolicyLRU)
	for i := 0; i < 32; i++ {
		c.PutEv(fmt.Sprintf("k%d", i), i, time.Hour, CategoryOther, t0)
	}
	now := t0.Add(time.Second)
	keys := make([]string, 32)
	for j := range keys {
		keys[j] = fmt.Sprintf("k%d", j)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		i = (i + 7) % 32 // rotate so promotions actually move slots
		if _, ok := c.Get(keys[i], now); !ok {
			t.Fatal("expected hit")
		}
	})
	if allocs != 0 {
		t.Errorf("Get hit allocated %.1f times per op, want 0", allocs)
	}
}

// TestGetNameZeroAlloc: probing with a question's name bytes hits the
// entry Get would, counts like Get, and allocates nothing even for a name
// long enough (> 32 bytes) that string(name) outside the index would.
func TestGetNameZeroAlloc(t *testing.T) {
	const name = "0.0.0.0.1.0.0.4e.abc123.avqs.mcafee.com.probe.disposable.test"
	c := New[Key, int](16, PolicyLRU)
	c.PutEv(Key{name, dnsmsg.TypeA}, 1, time.Hour, CategoryDisposable, t0)
	c.PutEv(Key{name, dnsmsg.TypeAAAA}, 2, time.Hour, CategoryDisposable, t0)
	b := []byte(name)
	now := t0.Add(time.Second)
	allocs := testing.AllocsPerRun(500, func() {
		if got, v, ok := GetName(c, b, dnsmsg.TypeAAAA, now); !ok || *v != 2 || got != name {
			t.Fatalf("GetName = (%q, %v, %v), want (%q, 2, true)", got, v, ok, name)
		}
	})
	if allocs != 0 {
		t.Errorf("GetName hit on a %d-byte name allocated %.1f times per op, want 0", len(b), allocs)
	}
	before := c.Stats()
	if _, _, ok := GetName(c, b, dnsmsg.TypeTXT, now); ok {
		t.Error("GetName hit a type never cached")
	}
	if _, _, ok := GetName(c, b, dnsmsg.TypeA, t0.Add(2*time.Hour)); ok {
		t.Error("GetName hit an expired entry")
	}
	st := c.Stats()
	if st.Hits != before.Hits || st.Misses != before.Misses+2 || st.Expiries != before.Expiries+1 || c.Len() != 1 {
		t.Errorf("stats %+v (Len %d) after a miss and an expiry, from %+v", st, c.Len(), before)
	}
}

// TestPutRefreshZeroAlloc: refreshing an existing key (the common TTL-renew
// path) rewrites the slot in place — no allocation.
func TestPutRefreshZeroAlloc(t *testing.T) {
	c := New[string, int](16, PolicyLRU)
	c.PutEv("key", 1, time.Hour, CategoryOther, t0)
	c.PutLowPriorityEv("cold", 2, time.Hour, CategoryDisposable, t0)
	allocs := testing.AllocsPerRun(500, func() {
		c.PutEv("key", 3, time.Hour, CategoryOther, t0)
		c.PutLowPriorityEv("cold", 4, time.Hour, CategoryDisposable, t0)
	})
	if allocs != 0 {
		t.Errorf("Put refresh allocated %.1f times per op, want 0", allocs)
	}
}

// TestLenTracksMutations covers the atomic entry count through the
// mutation surface: insert, refresh with a category flip, expiry reclaim,
// and eviction.
func TestLenTracksMutations(t *testing.T) {
	c := New[string, int](2, PolicyLRU)
	check := func(want int, step string) {
		t.Helper()
		if got := c.Len(); got != want {
			t.Fatalf("%s: Len = %d, want %d", step, got, want)
		}
	}
	c.PutEv("a", 1, time.Hour, CategoryOther, t0)
	check(1, "insert")
	c.PutEv("a", 1, time.Hour, CategoryDisposable, t0)
	check(1, "refresh flips category")
	c.PutEv("b", 2, time.Second, CategoryOther, t0)
	check(2, "second insert")
	// Expired lookup reclaims the entry.
	if _, ok := c.Get("b", t0.Add(time.Minute)); ok {
		t.Fatal("b should have expired")
	}
	check(1, "expiry reclaim")
	c.PutEv("c", 3, time.Hour, CategoryOther, t0)
	c.PutEv("d", 4, time.Hour, CategoryOther, t0) // evicts the LRU
	check(2, "eviction")
	if _, ok := peek(c, "a"); ok {
		t.Error("a should have been the eviction victim")
	}
}

// TestSlabReuseAfterChurn: the arena must recycle slots through the free
// chain — heavy insert/evict churn keeps Len bounded by capacity and the
// recency order consistent.
func TestSlabReuseAfterChurn(t *testing.T) {
	const capacity = 8
	c := New[int, int](capacity, PolicyLRU)
	for i := 0; i < 10*capacity; i++ {
		c.PutEv(i, i, time.Hour, Category(i%2), t0)
		if c.Len() > capacity {
			t.Fatalf("Len %d exceeds capacity %d", c.Len(), capacity)
		}
	}
	// The survivors are the last `capacity` keys, newest first.
	for i := 10*capacity - capacity; i < 10*capacity; i++ {
		if _, ok := peek(c, i); !ok {
			t.Errorf("key %d should have survived", i)
		}
	}
	if c.Len() != capacity {
		t.Errorf("Len = %d, want capacity %d", c.Len(), capacity)
	}
}
