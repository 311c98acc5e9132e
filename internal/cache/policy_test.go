package cache

import (
	"fmt"
	"testing"
	"time"
)

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, kind := range Policies() {
		got, err := ParsePolicy(kind.String())
		if err != nil || got != kind {
			t.Errorf("ParsePolicy(%q) = (%v, %v), want (%v, nil)", kind.String(), got, err, kind)
		}
	}
	if _, err := ParsePolicy("arc"); err == nil {
		t.Error("ParsePolicy should reject unknown policies")
	}
	if got, err := ParsePolicy(""); err != nil || got != PolicyLRU {
		t.Errorf("ParsePolicy(\"\") = (%v, %v), want the LRU default", got, err)
	}
}

// TestSieveVictimSelection pins the SIEVE mechanics: the hand sweeps from
// the cold end, gives visited entries a pass (clearing the bit), evicts the
// first unvisited entry, and resumes from where it stopped.
func TestSieveVictimSelection(t *testing.T) {
	c := New[string, int](3, PolicySIEVE)
	c.PutEv("a", 1, time.Hour, CategoryOther, t0)
	c.PutEv("b", 2, time.Hour, CategoryOther, t0)
	c.PutEv("c", 3, time.Hour, CategoryOther, t0)
	// Visit a and b; c stays unvisited.
	c.Get("a", t0)
	c.Get("b", t0)
	// Hand scans a (visited, cleared) then b (visited, cleared) then c:
	// the only unvisited entry is evicted even though it is the newest.
	c.PutEv("d", 4, time.Hour, CategoryOther, t0)
	if _, ok := peek(c, "c"); ok {
		t.Fatal("sieve should have evicted the unvisited entry c")
	}
	for _, k := range []string{"a", "b", "d"} {
		if _, ok := peek(c, k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	// a and b had their bits cleared during the sweep; the hand wrapped.
	// Next insertion scans from the tail again and evicts a (oldest,
	// now unvisited).
	c.PutEv("e", 5, time.Hour, CategoryOther, t0)
	if _, ok := peek(c, "a"); ok {
		t.Fatal("sieve should have evicted a on the second sweep")
	}
}

// TestSieveHitDoesNotMove: a SIEVE hit must not change eviction order by
// itself — only the visited bit protects the entry, for exactly one sweep.
func TestSieveHitDoesNotMove(t *testing.T) {
	c := New[string, int](2, PolicySIEVE)
	c.PutEv("a", 1, time.Hour, CategoryOther, t0)
	c.PutEv("b", 2, time.Hour, CategoryOther, t0)
	// Many hits on a buy it exactly one pass, not permanent protection.
	for i := 0; i < 5; i++ {
		c.Get("a", t0)
	}
	c.PutEv("x", 3, time.Hour, CategoryOther, t0) // sweep: a cleared, b evicted
	if _, ok := peek(c, "b"); ok {
		t.Fatal("b should have been evicted")
	}
	c.PutEv("y", 4, time.Hour, CategoryOther, t0) // a unvisited now → evicted
	if _, ok := peek(c, "a"); ok {
		t.Fatal("a should have been evicted on the second insertion")
	}
}

// TestPolicyChurnInvariants runs heavy insert/evict churn under every
// policy: occupancy stays bounded, the cache ends full, and every
// surviving key is servable.
func TestPolicyChurnInvariants(t *testing.T) {
	const capacity = 16
	for _, kind := range Policies() {
		t.Run(kind.String(), func(t *testing.T) {
			c := New[int, int](capacity, kind)
			for i := 0; i < 40*capacity; i++ {
				c.PutEv(i, i, time.Hour, Category(i%2), t0)
				if i%3 == 0 {
					c.Get(i-5, t0) // mix hits/misses into the scan state
				}
				if c.Len() > capacity {
					t.Fatalf("Len %d exceeds capacity %d", c.Len(), capacity)
				}
			}
			if c.Len() != capacity {
				t.Fatalf("Len = %d, want full cache %d", c.Len(), capacity)
			}
			st := c.Stats()
			if st.Evictions == 0 {
				t.Fatal("churn must record evictions")
			}
			// Every key the index knows must round-trip through Get.
			live := 0
			for i := 0; i < 40*capacity; i++ {
				if v, ok := valueOf(c.Get(i, t0.Add(time.Second))); ok {
					if v != i {
						t.Fatalf("key %d returned value %d", i, v)
					}
					live++
				}
			}
			if live != capacity {
				t.Fatalf("servable entries = %d, want %d", live, capacity)
			}
		})
	}
}

// TestPolicyZeroAllocHotPath: for every policy, the hit path, the refresh
// path and full evict-then-insert churn must not allocate once the slab has
// grown.
func TestPolicyZeroAllocHotPath(t *testing.T) {
	for _, kind := range Policies() {
		t.Run(kind.String(), func(t *testing.T) {
			const capacity = 64
			c := New[string, int](capacity, kind)
			keys := make([]string, 2*capacity)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			for i := 0; i < capacity; i++ {
				c.PutEv(keys[i], i, time.Hour, CategoryOther, t0)
			}
			now := t0.Add(time.Second)
			i := 0
			if allocs := testing.AllocsPerRun(500, func() {
				i = (i + 7) % capacity
				c.Get(keys[i], now)
			}); allocs != 0 {
				t.Errorf("Get allocated %.1f times per op, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(500, func() {
				c.PutEv(keys[3], 1, time.Hour, CategoryOther, now)
				c.PutLowPriorityEv(keys[5], 2, time.Hour, CategoryDisposable, now)
			}); allocs != 0 {
				t.Errorf("Put refresh allocated %.1f times per op, want 0", allocs)
			}
			j := 0
			if allocs := testing.AllocsPerRun(500, func() {
				j = (j + 1) % len(keys)
				c.PutEv(keys[j], j, time.Hour, Category(j%2), now) // mostly evict+insert
			}); allocs != 0 {
				t.Errorf("eviction churn allocated %.1f times per op, want 0", allocs)
			}
		})
	}
}
