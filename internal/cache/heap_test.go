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

// churn puts names [from, to) into c, name i at i+1 ms of query time,
// each living ttl, advancing the timer wheel as the resolver does.
func churn(c *LRU[Key, answerValue], from, to int, ttl time.Duration) {
	var buf []byte
	for i := from; i < to; i++ {
		now := t0.Add(time.Duration(i+1) * time.Millisecond)
		c.Advance(now)
		buf = strconv.AppendInt(append(buf[:0], 'n'), int64(i), 10)
		buf = append(buf, ".churn.example.com"...)
		c.PutEv(Key{string(buf), dnsmsg.TypeA}, answerValue{}, ttl, CategoryDisposable, now)
	}
}

// TestIndexFlatUnderChurn: a cache's heap follows the entries it holds,
// not its capacity nor how many names have passed through it. Ten million
// distinct names, one a millisecond with a 3 s TTL, keep about 3 000 alive
// in a 65 536-entry cache. After the first million the index never grows
// again: a delete that left tombstones would grow it on churn alone, as
// Go's map index did (the whole cache went 1.33 MiB after 0.3 M names to
// 1.99 MiB after 10 M). At the end the cache holds under a tenth of what
// the same cache holds full.
func TestIndexFlatUnderChurn(t *testing.T) {
	const capacity, names, warm, step, ttl = 65536, 10_000_000, 1_000_000, 1_000_000, 3 * time.Second
	var warmBuckets int
	live := heapAfter(func() any {
		c := New[Key, answerValue](capacity, PolicyLRU)
		churn(c, 0, warm, ttl)
		warmBuckets = len(c.index.entries)
		for from := warm; from < names; from += step {
			churn(c, from, from+step, ttl)
			if got := len(c.index.entries); got != warmBuckets {
				t.Fatalf("after %d names the index has %d buckets, %d after %d: churn grew it", from+step, got, warmBuckets, warm)
			}
		}
		if n := c.Len(); n < 2500 || n > 3500 || c.index.n != n {
			t.Errorf("the churned cache holds %d entries and its index %d, want the same, about 3 000", n, c.index.n)
		}
		return c
	})
	full := heapAfter(func() any {
		c := New[Key, answerValue](capacity, PolicyLRU)
		churn(c, 0, 4*capacity, time.Hour)
		return c
	})
	t.Logf("live heap at about 3 000 entries: %.2f MiB, index %d buckets (%.0f KiB); full: %.2f MiB",
		live, warmBuckets, float64(8*warmBuckets)/1024, full)
	if live > full/10 {
		t.Errorf("a cache of about 3 000 live entries holds %.2f MiB, more than a tenth of the %.2f MiB it holds full", live, full)
	}
}
