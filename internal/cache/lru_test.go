package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dnsnoise/internal/dnsmsg"
)

var t0 = time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)

func TestGetMissThenHit(t *testing.T) {
	c := New[string, int](4, PolicyLRU)
	if _, ok := c.Get("a", t0); ok {
		t.Fatal("Get on empty cache should miss")
	}
	c.PutEv("a", 1, time.Minute, CategoryOther, t0)
	v, ok := valueOf(c.Get("a", t0.Add(time.Second)))
	if !ok || v != 1 {
		t.Fatalf("Get = (%v, %v), want (1, true)", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Insertions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New[string, int](4, PolicyLRU)
	c.PutEv("a", 1, 30*time.Second, CategoryOther, t0)
	if _, ok := c.Get("a", t0.Add(29*time.Second)); !ok {
		t.Error("entry expired too early")
	}
	if _, ok := c.Get("a", t0.Add(30*time.Second)); ok {
		t.Error("entry should be expired exactly at TTL boundary")
	}
	st := c.Stats()
	if st.Expiries != 1 {
		t.Errorf("Expiries = %d, want 1", st.Expiries)
	}
	// Expired entry must have been removed.
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0 after expiry", c.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[string, int](2, PolicyLRU)
	c.PutEv("a", 1, time.Hour, CategoryOther, t0)
	c.PutEv("b", 2, time.Hour, CategoryOther, t0)
	// Touch "a" so "b" becomes LRU.
	if _, ok := c.Get("a", t0); !ok {
		t.Fatal("a should be present")
	}
	c.PutEv("c", 3, time.Hour, CategoryOther, t0)
	if _, ok := c.Get("b", t0); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a", t0); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get("c", t0); !ok {
		t.Error("c should be present")
	}
}

func TestPrematureEvictionAccounting(t *testing.T) {
	c := New[string, int](2, PolicyLRU)
	c.PutEv("nd1", 1, time.Hour, CategoryOther, t0)
	c.PutEv("nd2", 2, time.Hour, CategoryOther, t0)
	// A disposable insertion evicts a live non-disposable entry.
	c.PutEv("d1", 3, time.Minute, CategoryDisposable, t0)
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if got := st.PrematureEvictions[CategoryOther][CategoryDisposable]; got != 1 {
		t.Errorf("PrematureEvictions[other][disposable] = %d, want 1", got)
	}
	if got := st.PrematureEvictions[CategoryDisposable][CategoryOther]; got != 0 {
		t.Errorf("PrematureEvictions[disposable][other] = %d, want 0", got)
	}
}

func TestExpiredVictimIsNotPremature(t *testing.T) {
	c := New[string, int](1, PolicyLRU)
	c.PutEv("a", 1, time.Second, CategoryOther, t0)
	// Insert long after "a" expired: reclaim, not premature eviction.
	c.PutEv("b", 2, time.Minute, CategoryDisposable, t0.Add(time.Hour))
	st := c.Stats()
	if st.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0 (victim already expired)", st.Evictions)
	}
}

// TestPutPointerIsTheSlot pins the pointer contract: PutEv returns the
// slot a following Get of the key returns, a refresh in place writes through
// it, and GetName's pointer is the same slot.
func TestPutPointerIsTheSlot(t *testing.T) {
	c := New[Key, int](4, PolicyLRU)
	key := Key{"a.example", dnsmsg.TypeA}
	put, ev := c.PutEv(key, 1, time.Hour, CategoryOther, t0)
	if ev != (Eviction{}) || *put != 1 {
		t.Fatalf("PutEv = (%v, %+v), want (1, no eviction)", *put, ev)
	}
	got, ok := c.Get(key, t0.Add(time.Second))
	if !ok || got != put {
		t.Fatalf("Get = (%p, %v), want PutEv's pointer %p", got, ok, put)
	}
	again, _ := c.PutLowPriorityEv(key, 2, time.Hour, CategoryDisposable, t0.Add(time.Second))
	if again != put || *put != 2 {
		t.Errorf("refresh in place returned %p holding %d, want %p holding 2", again, *again, put)
	}
	if _, byName, ok := GetName(c, []byte(key.Name), key.Type, t0.Add(2*time.Second)); !ok || byName != put {
		t.Errorf("GetName = (%p, %v), want PutEv's pointer %p", byName, ok, put)
	}
}

// TestSlabNeverGrowsPastCapacity: the arenas grow geometrically on first
// use, but the step that would overshoot the capacity stops at it — no
// arena has room for a slot the cache may never hold.
func TestSlabNeverGrowsPastCapacity(t *testing.T) {
	for _, capacity := range []int{1, 3, 256, 1000} {
		c := New[int, int](capacity, PolicySIEVE)
		for i := 0; i < 2*capacity; i++ {
			c.PutEv(i, i, time.Hour, CategoryOther, t0)
		}
		caps := map[string]int{
			"slab": cap(c.slab), "ord.prev": cap(c.ord.prev), "ord.next": cap(c.ord.next), "ord.mark": cap(c.ord.mark),
			"whl.prev": cap(c.whl.prev), "whl.next": cap(c.whl.next), "whl.bucket": cap(c.whl.bucket), "whl.expiry": cap(c.whl.expiry),
		}
		for arena, n := range caps {
			if n > capacity {
				t.Errorf("capacity %d: %s has room for %d slots", capacity, arena, n)
			}
		}
		if len(c.slab) != capacity {
			t.Errorf("capacity %d: slab holds %d slots after %d insertions", capacity, len(c.slab), 2*capacity)
		}
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New[string, int](2, PolicyLRU)
	c.PutEv("a", 1, time.Second, CategoryOther, t0)
	c.PutEv("a", 2, time.Hour, CategoryDisposable, t0)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	v, ok := valueOf(c.Get("a", t0.Add(time.Minute)))
	if !ok || v != 2 {
		t.Errorf("Get = (%v, %v), want (2, true) after refresh", v, ok)
	}
	s, ok := peek(c, "a")
	if !ok || s.category != CategoryDisposable {
		t.Errorf("slot = (%+v, %v), category should be refreshed", s, ok)
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[string, int](0, PolicyLRU)
	c.PutEv("a", 1, time.Hour, CategoryOther, t0)
	c.PutEv("b", 2, time.Hour, CategoryOther, t0)
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCategoryString(t *testing.T) {
	if CategoryDisposable.String() != "disposable" || CategoryOther.String() != "other" {
		t.Error("Category.String mismatch")
	}
}

// Property: Len never exceeds capacity, and hits+misses equals the number of
// Get calls, across arbitrary operation sequences.
func TestInvariantsProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int(capRaw%20) + 1
		c := New[string, int](capacity, PolicyLRU)
		now := t0
		gets := uint64(0)
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(40))
			now = now.Add(time.Duration(rng.Intn(10)) * time.Second)
			if rng.Intn(2) == 0 {
				ttl := time.Duration(rng.Intn(60)+1) * time.Second
				c.PutEv(key, i, ttl, Category(rng.Intn(2)), now)
			} else {
				c.Get(key, now)
				gets++
			}
			if c.Len() > capacity {
				return false
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == gets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: an entry that is Put and immediately Get (same instant, positive
// TTL) always hits.
func TestImmediateHitProperty(t *testing.T) {
	f := func(key string, ttlRaw uint16) bool {
		c := New[string, string](4, PolicyLRU)
		ttl := time.Duration(ttlRaw%3600+1) * time.Second
		c.PutEv(key, "v", ttl, CategoryOther, t0)
		_, ok := c.Get(key, t0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPutLowPriorityIsFirstVictim(t *testing.T) {
	c := New[string, int](3, PolicyLRU)
	c.PutEv("hot1", 1, time.Hour, CategoryOther, t0)
	c.PutLowPriorityEv("cold", 2, time.Hour, CategoryDisposable, t0)
	c.PutEv("hot2", 3, time.Hour, CategoryOther, t0)
	// Cache full; the next insert must evict the low-priority entry even
	// though hot1 is older.
	c.PutEv("hot3", 4, time.Hour, CategoryOther, t0)
	if _, ok := peek(c, "cold"); ok {
		t.Error("low-priority entry should be the first victim")
	}
	for _, k := range []string{"hot1", "hot2", "hot3"} {
		if _, ok := peek(c, k); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
}

func TestPutLowPriorityRefreshStaysCold(t *testing.T) {
	c := New[string, int](2, PolicyLRU)
	c.PutEv("hot", 1, time.Hour, CategoryOther, t0)
	c.PutLowPriorityEv("cold", 2, time.Hour, CategoryDisposable, t0)
	// Refreshing the cold entry must not promote it.
	c.PutLowPriorityEv("cold", 3, time.Hour, CategoryDisposable, t0)
	c.PutEv("hot2", 4, time.Hour, CategoryOther, t0)
	if _, ok := peek(c, "cold"); ok {
		t.Error("refreshed low-priority entry should still be the victim")
	}
	if _, ok := peek(c, "hot"); !ok {
		t.Error("hot entry should survive")
	}
}

func TestPutLowPriorityStillServesHits(t *testing.T) {
	c := New[string, int](4, PolicyLRU)
	c.PutLowPriorityEv("cold", 1, time.Hour, CategoryDisposable, t0)
	v, ok := valueOf(c.Get("cold", t0.Add(time.Second)))
	if !ok || v != 1 {
		t.Errorf("Get = (%v, %v): low priority entries are still cached", v, ok)
	}
}
