package cache

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"dnsnoise/internal/dnsmsg"
)

// answerValue has the resolver's cache value's shape: one record in place,
// or a slice of them.
type answerValue struct {
	one  [1]dnsmsg.RR
	many []dnsmsg.RR
}

// heapAfter returns the live heap, after a collection, that fill leaves
// beyond what was live before it; what fill returns is kept alive until the
// reading is taken.
func heapAfter(fill func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := fill()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
}

// churn puts keys distinct names into c, one a millisecond, each living
// ttl, advancing the timer wheel as the resolver does, and returns c.
func churn(c *LRU[Key, answerValue], keys int, ttl time.Duration) *LRU[Key, answerValue] {
	var buf []byte
	now := t0
	for i := range keys {
		now = now.Add(time.Millisecond)
		c.Advance(now)
		buf = strconv.AppendInt(append(buf[:0], 'n'), int64(i), 10)
		buf = append(buf, ".churn.example.com"...)
		c.PutEv(Key{string(buf), dnsmsg.TypeA}, answerValue{}, ttl, CategoryDisposable, now)
	}
	return c
}

// presized is New with the index made for capacity entries up front: the
// yardstick TestIndexFollowsLiveSet holds the cache to.
func presized(capacity int) *LRU[Key, answerValue] {
	c := New[Key, answerValue](capacity, PolicyLRU)
	c.index = make(map[Key]int32, capacity)
	return c
}

// TestIndexFollowsLiveSet: a cache's heap follows the entries it holds, not
// its capacity. Churned through 3 M names whose 3 s TTL keeps about 3 000 of
// them alive, a 65 536-entry cache holds what those entries need: its index
// grows with them, as its arena does. On Go 1.24's map that was 1.9 MiB
// against 5.8 with the index presized; the budget is half the presized
// cache's, since churn still grows a Swiss-table index a little beyond its
// live set (1.3 MiB after 0.3 M names, 2.0 after 10 M). At full capacity
// the cache holds no more than a presized one (16.8 MiB both).
func TestIndexFollowsLiveSet(t *testing.T) {
	const capacity, names, ttl = 65536, 3_000_000, 3 * time.Second
	live := heapAfter(func() any {
		c := churn(New[Key, answerValue](capacity, PolicyLRU), names, ttl)
		if n := c.Len(); n < 2500 || n > 3500 {
			t.Errorf("the churned cache holds %d entries, want about 3 000", n)
		}
		return c
	})
	livePresized := heapAfter(func() any { return churn(presized(capacity), names, ttl) })
	full := heapAfter(func() any {
		return churn(New[Key, answerValue](capacity, PolicyLRU), 4*capacity, time.Hour)
	})
	fullPresized := heapAfter(func() any { return churn(presized(capacity), 4*capacity, time.Hour) })
	t.Logf("live heap at about 3 000 entries: %.2f MiB (index presized: %.2f); full: %.2f MiB (%.2f)",
		live, livePresized, full, fullPresized)
	if live > livePresized/2 {
		t.Errorf("a cache of about 3 000 live entries holds %.2f MiB, more than half the %.2f of one with a presized index", live, livePresized)
	}
	if full > fullPresized*1.01 {
		t.Errorf("a full cache holds %.2f MiB, more than the %.2f of one with a presized index", full, fullPresized)
	}
}
