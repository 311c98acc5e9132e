package cache

import (
	"fmt"
	"testing"
	"time"
)

// TestAdvanceReclaimsExpired: the wheel reclaims whole buckets of dead
// entries without any lookup touching them. Reclaims are counted separately
// from lookup-time expiries.
func TestAdvanceReclaimsExpired(t *testing.T) {
	c := New[string, int](16, PolicyLRU)
	c.PutEv("short", 1, 5*time.Second, CategoryDisposable, t0)
	c.PutEv("mid", 2, 30*time.Second, CategoryOther, t0)
	c.PutEv("long", 3, time.Hour, CategoryOther, t0)

	c.Advance(t0.Add(10 * time.Second))
	if c.Len() != 2 {
		t.Fatalf("Len = %d after first advance, want 2", c.Len())
	}
	c.Advance(t0.Add(2 * time.Minute))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after second advance, want 1", c.Len())
	}
	st := c.Stats()
	if st.Reclaims != 2 {
		t.Errorf("Reclaims = %d, want 2", st.Reclaims)
	}
	if st.Expiries != 0 {
		t.Errorf("Expiries = %d, want 0 (wheel reclaims are not lookup expiries)", st.Expiries)
	}
	if _, ok := c.Get("long", t0.Add(2*time.Minute)); !ok {
		t.Error("long-TTL entry should have survived")
	}
	if _, ok := peek(c, "short"); ok {
		t.Error("reclaimed entry still in its slot")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after the reclaims and a hit, want 1", c.Len())
	}
}

// TestAdvanceNeverReclaimsLive: an entry is only reclaimed once its expiry
// second has wholly passed — advancing to any instant before that leaves it
// servable.
func TestAdvanceNeverReclaimsLive(t *testing.T) {
	c := New[string, int](4, PolicyLRU)
	c.PutEv("a", 1, 30*time.Second, CategoryOther, t0)
	c.Advance(t0.Add(30*time.Second + 500*time.Millisecond))
	// The expiry falls inside the wheel's current tick: the lazy Get check
	// still rejects it, but Advance must not have reclaimed a tick that
	// has not wholly passed for other entries sharing it.
	c.PutEv("b", 2, 29*time.Second, CategoryOther, t0.Add(time.Second))
	if _, ok := c.Get("b", t0.Add(29*time.Second)); !ok {
		t.Error("b is live and must be servable")
	}
}

// TestAdvanceIdleFastForward: an empty (or fully reclaimed) cache
// fast-forwards across arbitrary gaps in O(1) and keeps working.
func TestAdvanceIdleFastForward(t *testing.T) {
	c := New[string, int](4, PolicyLRU)
	c.PutEv("a", 1, time.Second, CategoryOther, t0)
	c.Advance(t0.Add(48 * time.Hour)) // day-boundary style jump
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
	later := t0.Add(72 * time.Hour)
	c.PutEv("b", 2, time.Minute, CategoryOther, later)
	if _, ok := c.Get("b", later.Add(time.Second)); !ok {
		t.Error("cache must keep serving after a large fast-forward")
	}
	c.Advance(later.Add(2 * time.Minute))
	if c.Len() != 0 {
		t.Errorf("Len = %d after post-jump expiry, want 0", c.Len())
	}
}

// TestAdvanceCascade: entries beyond the level-0 horizon (>512 s) cascade
// down from level 1 and are reclaimed at the right time, not at the
// cascade boundary.
func TestAdvanceCascade(t *testing.T) {
	c := New[int, int](64, PolicyLRU)
	// TTLs straddling the 512 s level-0 span and a few level-1 windows.
	ttls := []time.Duration{
		100 * time.Second,
		511 * time.Second,
		512 * time.Second,
		700 * time.Second,
		1500 * time.Second,
		3000 * time.Second,
	}
	for i, ttl := range ttls {
		c.PutEv(i, i, ttl, CategoryOther, t0)
	}
	// Walk forward one minute at a time; at each step every entry with
	// ttl < elapsed must be gone and every other entry must remain.
	for elapsed := time.Minute; elapsed <= 3200*time.Second; elapsed += time.Minute {
		c.Advance(t0.Add(elapsed))
		for i, ttl := range ttls {
			_, ok := peek(c, i)
			if ttl+time.Second <= elapsed && ok {
				t.Fatalf("entry %d (ttl %v) still present at +%v", i, ttl, elapsed)
			}
			if ttl > elapsed && !ok {
				t.Fatalf("entry %d (ttl %v) reclaimed early at +%v", i, ttl, elapsed)
			}
		}
	}
	if st := c.Stats(); st.Reclaims != uint64(len(ttls)) {
		t.Errorf("Reclaims = %d, want %d", st.Reclaims, len(ttls))
	}
}

// TestAdvanceOverflow: entries beyond the level-1 horizon (~3 days) park in
// the overflow bucket and still expire correctly as the wheel reaches them.
func TestAdvanceOverflow(t *testing.T) {
	c := New[string, int](8, PolicyLRU)
	c.PutEv("far", 1, 4*24*time.Hour, CategoryOther, t0)
	c.PutEv("near", 2, time.Hour, CategoryOther, t0)
	for d := 12 * time.Hour; d <= 5*24*time.Hour; d += 12 * time.Hour {
		c.Advance(t0.Add(d))
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after 5 days, want 0", c.Len())
	}
	// And an overflow entry must survive until its actual expiry.
	c.PutEv("far2", 3, 4*24*time.Hour, CategoryOther, t0.Add(5*24*time.Hour))
	c.Advance(t0.Add(8 * 24 * time.Hour))
	if _, ok := peek(c, "far2"); !ok {
		t.Error("overflow entry reclaimed before its expiry")
	}
	c.Advance(t0.Add(10 * 24 * time.Hour))
	if _, ok := peek(c, "far2"); ok {
		t.Error("overflow entry still present after expiry")
	}
}

// TestPutRefreshRefilesWheel: refreshing a key with a new TTL must move it
// to the new expiry bucket — the old filing must not reclaim it early.
func TestPutRefreshRefilesWheel(t *testing.T) {
	c := New[string, int](4, PolicyLRU)
	c.PutEv("a", 1, 10*time.Second, CategoryOther, t0)
	c.PutEv("a", 2, time.Hour, CategoryOther, t0) // extend
	c.Advance(t0.Add(time.Minute))
	if v, ok := valueOf(c.Get("a", t0.Add(time.Minute))); !ok || v != 2 {
		t.Fatalf("Get = (%v, %v), want (2, true) after TTL extension", v, ok)
	}
	c.PutEv("a", 3, 5*time.Second, CategoryOther, t0.Add(time.Minute)) // shorten
	c.Advance(t0.Add(2 * time.Minute))
	if _, ok := peek(c, "a"); ok {
		t.Error("entry should have been reclaimed after TTL shortening")
	}
}

// TestLiveLenTracksOccupancy: LiveLen excludes entries whose expiry second
// has passed by the observed clock but which the wheel has not reclaimed
// yet; after Advance the two lengths agree again.
func TestLiveLenTracksOccupancy(t *testing.T) {
	c := New[string, int](16, PolicyLRU)
	c.PutEv("short", 1, 5*time.Second, CategoryOther, t0)
	c.PutEv("long", 2, time.Hour, CategoryOther, t0)
	if l, ll := c.Len(), c.LiveLen(); l != 2 || ll != 2 {
		t.Fatalf("Len/LiveLen = %d/%d, want 2/2", l, ll)
	}
	// Observe a later clock via a miss on an unrelated key — no reclaim.
	c.Get("other", t0.Add(time.Minute))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (no reclaim yet)", c.Len())
	}
	if ll := c.LiveLen(); ll != 1 {
		t.Fatalf("LiveLen = %d, want 1 (short entry past expiry)", ll)
	}
	c.Advance(t0.Add(time.Minute))
	if l, ll := c.Len(), c.LiveLen(); l != 1 || ll != 1 {
		t.Errorf("Len/LiveLen = %d/%d after Advance, want 1/1", l, ll)
	}
}

// TestAdvanceZeroAlloc: the wheel step — including bucket reclaim and
// level-1 cascades — must not allocate; it runs on the resolve hot path.
func TestAdvanceZeroAlloc(t *testing.T) {
	for _, kind := range Policies() {
		t.Run(kind.String(), func(t *testing.T) {
			c := New[string, int](1024, kind)
			now := t0
			for i := 0; i < 512; i++ {
				c.PutEv(fmt.Sprintf("k%d", i), i, time.Duration(1+i%900)*time.Second, CategoryOther, now)
			}
			allocs := testing.AllocsPerRun(600, func() {
				now = now.Add(3 * time.Second)
				c.Advance(now)
			})
			if allocs != 0 {
				t.Errorf("Advance allocated %.1f times per op, want 0", allocs)
			}
		})
	}
}
