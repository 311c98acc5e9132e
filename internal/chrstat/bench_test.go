package chrstat

import (
	"fmt"
	"testing"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/resolver"
)

// freshObservations returns n below-side observations of n distinct
// disposable-style records, one client each.
func freshObservations(n int) []resolver.Observation {
	obs := make([]resolver.Observation, n)
	for i := range obs {
		obs[i] = obBelow(rrA(fmt.Sprintf("tok%d.avqs.example.com", i), "127.0.3.17"), cache.CategoryDisposable)
		obs[i].ClientID = uint32(i % 1000)
	}
	return obs
}

// TestObserveAllocs: an observation of a record the collector knows, from a
// client the record knows, allocates nothing; a new record with its one
// client costs its share of two slab chunks (the record, its name's entry)
// and of the growth of the collector's one map — and no object, client map or
// map group of its own. A second and a third record on a known name cost a
// slab share each and nothing else: they hang off the first, no slice grows.
func TestObserveAllocs(t *testing.T) {
	const records = 10000
	obs := freshObservations(records)
	more := make([]resolver.Observation, 0, 2*records)
	for _, ip := range []string{"127.0.3.18", "127.0.3.19"} {
		for i := range obs {
			ob := obs[i]
			ob.RR = rrA(ob.RR.Name, ip)
			more = append(more, ob)
		}
	}
	var c *Collector
	build := func(streams ...[]resolver.Observation) float64 {
		return testing.AllocsPerRun(1, func() {
			c = NewCollector()
			for _, stream := range streams {
				for i := range stream {
					c.ObserveBelow(stream[i])
				}
			}
		})
	}
	first := build(obs)
	fresh := first / records
	further := (build(obs, more) - first) / float64(len(more))
	known := testing.AllocsPerRun(5, func() {
		for i := range obs {
			c.ObserveBelow(obs[i])
		}
	})
	if got, _ := c.QueriedNames(nil); got != records || c.NumRecords() != 3*records {
		t.Fatalf("%d names own %d records, want %d and %d", got, c.NumRecords(), records, 3*records)
	}
	t.Logf("known record: %.0f allocs per %d observations; new record: %.3f allocs each; further record of a known name: %.4f", known, records, fresh, further)
	if known != 0 {
		t.Errorf("%d observations of known records allocated %.0f times, want 0", records, known)
	}
	if fresh > 0.05 {
		t.Errorf("a new record cost %.3f allocations, budget 0.05", fresh)
	}
	if slabShare := 1 / float64(statChunk); further > slabShare+0.001 {
		t.Errorf("a further record of a known name cost %.4f allocations, want a slab share (%.4f)", further, slabShare)
	}
}

// mergeFixture is two shards of 5 000 records each, disjoint, one or two
// clients a record.
func mergeFixture() (s *ShardedCollector, records int) {
	obs := freshObservations(10000)
	s = NewShardedCollector(2)
	for i := range obs {
		obs[i].Server = i % 2
		s.ObserveBelow(obs[i])
		if i%3 == 0 {
			obs[i].ClientID++
			s.ObserveBelow(obs[i])
		}
	}
	return s, len(obs)
}

// TestMergeAllocs: folding a shard's record into the merged collector costs
// what observing it new does — not a record, a client map and an id slice
// each.
func TestMergeAllocs(t *testing.T) {
	s, records := mergeFixture()
	perRecord := testing.AllocsPerRun(3, func() { s.Merge() }) / float64(records)
	t.Logf("Merge: %.3f allocs per absorbed record", perRecord)
	if perRecord > 0.05 {
		t.Errorf("Merge cost %.3f allocations per absorbed record, budget 0.05", perRecord)
	}
}

func BenchmarkObserveBelow(b *testing.B) {
	b.Run("known", func(b *testing.B) {
		obs := freshObservations(1000)
		c := NewCollector()
		for i := range obs {
			c.ObserveBelow(obs[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ObserveBelow(obs[i%len(obs)])
		}
	})
	b.Run("fresh", func(b *testing.B) {
		obs := freshObservations(b.N)
		c := NewCollector()
		b.ReportAllocs()
		b.ResetTimer()
		for i := range obs {
			c.ObserveBelow(obs[i])
		}
	})
}

// BenchmarkObserveMiss is what a cache miss costs the collector: the record
// observed above, then below.
func BenchmarkObserveMiss(b *testing.B) {
	b.Run("known", func(b *testing.B) {
		obs := freshObservations(1000)
		c := NewCollector()
		for i := range obs {
			c.ObserveBelow(obs[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ObserveAbove(obs[i%len(obs)])
			c.ObserveBelow(obs[i%len(obs)])
		}
	})
	b.Run("fresh", func(b *testing.B) {
		obs := freshObservations(b.N)
		c := NewCollector()
		b.ReportAllocs()
		b.ResetTimer()
		for i := range obs {
			c.ObserveAbove(obs[i])
			c.ObserveBelow(obs[i])
		}
	})
}

func BenchmarkMerge(b *testing.B) {
	s, _ := mergeFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Merge()
	}
}

// BenchmarkMergeTouched is the merge a window pays: a view brought up to
// date after one record in twenty of the fixture's 10 000 was observed
// again (the observations are in the timing, a tenth of it).
func BenchmarkMergeTouched(b *testing.B) {
	s, records := mergeFixture()
	obs := freshObservations(records)
	var v Counts
	v.Refresh(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := i % 20; j < records; j += 20 {
			obs[j].Server = j % 2
			s.ObserveBelow(obs[j])
		}
		if _, touched := v.Refresh(s); len(touched) != records/20 {
			b.Fatalf("%d records touched, want %d", len(touched), records/20)
		}
	}
}
