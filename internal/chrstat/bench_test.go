package chrstat

import (
	"fmt"
	"runtime"
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

// crowdClients are the client counts of the records that spill: just past the
// inline four, one block and a bit, the cap, and past it.
var crowdClients = [...]int{5, 18, 64, 70}

// crowd returns observations of obs[i] by further distinct clients, enough
// that record i has crowdClients[i%4] in all, and how many of each record's
// counted ids spill past the inline ones.
func crowd(obs []resolver.Observation) (more []resolver.Observation, spilled int) {
	for i := range obs {
		clients := crowdClients[i%len(crowdClients)]
		spilled += min(clients, maxTrackedClients) - inlineClients
		for id := 1; id < clients; id++ {
			ob := obs[i]
			ob.ClientID = uint32(1<<20 + id) // none is the record's first
			more = append(more, ob)
		}
	}
	return more, spilled
}

// TestObserveAllocs: an observation of a record the collector knows, from a
// client the record knows, allocates nothing; a new record with its one
// client costs its share of two slab chunks (the record, its name's entry)
// and of the growth of the collector's one map — and no object, client map or
// map group of its own. A second and a third record on a known name cost a
// slab share each and nothing else: they hang off the first, no slice grows.
// A client past a record's fourth costs its share of a block chunk: fourteen
// ids to a block, 127 blocks to a chunk — not a growing slice.
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
	crowded, spilled := crowd(obs)
	var c *Collector
	fresh := testing.AllocsPerRun(1, func() {
		c = NewCollector()
		for i := range obs {
			c.ObserveBelow(obs[i])
		}
	}) / records
	// The rest is measured on c, whose map knows every name by now: the two
	// builds a difference would take hash their maps apart, and on Go 1.23's
	// map their overflow buckets differ by more than the budgets below.
	observe := func(stream []resolver.Observation) float64 {
		return mallocs(func() {
			for i := range stream {
				c.ObserveBelow(stream[i])
			}
		}) / float64(len(stream))
	}
	perSpill := observe(crowded) * float64(len(crowded)) / float64(spilled)
	for i, clients := range crowdClients {
		if n, saturated := c.stat(obs[i].RR, 0).Clients(); n != min(clients, maxTrackedClients) || saturated != (clients > maxTrackedClients) {
			t.Fatalf("a record observed by %d clients counts (%d, %v)", clients, n, saturated)
		}
	}
	further := observe(more)
	known := testing.AllocsPerRun(5, func() {
		for i := range obs {
			c.ObserveBelow(obs[i])
		}
	})
	if got, _ := c.QueriedNames(nil); got != records || c.NumRecords() != 3*records {
		t.Fatalf("%d names own %d records, want %d and %d", got, c.NumRecords(), records, 3*records)
	}
	t.Logf("known record: %.0f allocs per %d observations; new record: %.3f allocs each; further record of a known name: %.4f; spilled client: %.4f",
		known, records, fresh, further, perSpill)
	if known != 0 {
		t.Errorf("%d observations of known records allocated %.0f times, want 0", records, known)
	}
	if fresh > 0.05 {
		t.Errorf("a new record cost %.3f allocations, budget 0.05", fresh)
	}
	if slabShare := 1 / float64(statChunk); further > slabShare+0.001 {
		t.Errorf("a further record of a known name cost %.4f allocations, want a slab share (%.4f)", further, slabShare)
	}
	if perSpill > 0.01 {
		t.Errorf("a client past a record's fourth cost %.4f allocations, budget 0.01", perSpill)
	}
}

// mergeFixture is two shards of 5 000 records each, disjoint, one or two
// clients a record, and one record in 25 with 5 to 70, past its inline four.
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
	var spilling []resolver.Observation
	for i := 0; i < len(obs); i += 25 {
		spilling = append(spilling, obs[i])
	}
	crowded, _ := crowd(spilling)
	for i := range crowded {
		s.ObserveBelow(crowded[i])
	}
	return s, len(obs)
}

// TestMergeAllocs: Merge folds shard 1 into shard 0 in place. The fixture's
// records are disjoint, so each of shard 1's is relinked with its name: it
// costs shard 0's map a slot and no RRStat bytes, entry or client blocks of
// its own, where the copying fold paid 104 bytes for the record alone. What
// the map's growth costs is measured on a map that takes the same names in
// the same order, and subtracted; the allocations stay within the copying
// fold's budget too. Each run folds a fixture of its own: Merge spends it.
func TestMergeAllocs(t *testing.T) {
	const runs = 3
	var allocs, bytes, mapBytes float64
	var records int
	for run := 0; run < runs; run++ {
		s, n := mergeFixture()
		m := make(map[string]*nameEntry)
		for name := range s.shards[0].names {
			m[name] = nil
		}
		later := s.shards[1].names
		_, b := heapAllocs(func() {
			for name := range later {
				m[name] = nil
			}
		})
		mapBytes += b

		a, b := heapAllocs(func() { s.Merge() })
		allocs, bytes, records = allocs+a, bytes+b, n
	}
	perRecord := allocs / runs / float64(records)
	beyondMap := (bytes - mapBytes) / runs / float64(records/2)
	t.Logf("Merge: %.3f allocs per absorbed record; %.2f bytes per record only shard 1 held, beyond %.1f of map growth",
		perRecord, beyondMap, mapBytes/runs/float64(records/2))
	if perRecord > 0.05 {
		t.Errorf("Merge cost %.3f allocations per absorbed record, budget 0.05", perRecord)
	}
	if beyondMap > 8 {
		t.Errorf("a record only shard 1 held cost %.1f bytes beyond the map's growth, budget 8: it was copied, not relinked", beyondMap)
	}
}

// mallocs counts the heap allocations of one call of f, which AllocsPerRun
// cannot: its warm-up call would consume what f is measured on.
func mallocs(f func()) float64 {
	objects, _ := heapAllocs(f)
	return objects
}

// heapAllocs counts the heap allocations of one call of f and their bytes.
func heapAllocs(f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// TestRefreshAllocs: a view's record costs its share of a slab chunk, and its
// name's group a run of the view's pointer chunk: a new name costs no slice
// of its own, and a name that gains a record in a later refresh moves its
// group to a run twice as long, in the same chunk. Beyond the record's share
// and the growth of the view's map, a name costs at most 0.01.
func TestRefreshAllocs(t *testing.T) {
	const names = 10000
	obs := freshObservations(names)
	s := NewShardedCollector(2)
	for i := range obs {
		obs[i].Server = i % 2
		s.ObserveBelow(obs[i])
	}
	var v Counts
	first := testing.AllocsPerRun(3, func() {
		v = Counts{}
		if byName, _ := v.Refresh(s); len(byName) != names {
			t.Fatalf("the view groups %d names, want %d", len(byName), names)
		}
	})
	index := testing.AllocsPerRun(3, func() {
		m := make(map[string][]*RRStat)
		for i := range obs {
			m[obs[i].RR.Name] = nil
		}
	})
	recordShare := 1 / float64(statChunk)
	newName := (first-index)/names - recordShare

	second := make([]resolver.Observation, names)
	for i := range obs {
		second[i] = obs[i]
		second[i].RR = rrA(obs[i].RR.Name, "127.0.3.18")
	}
	for i := range second {
		s.ObserveBelow(second[i])
	}
	grown := mallocs(func() {
		if byName, touched := v.Refresh(s); len(touched) != names || len(byName[obs[0].RR.Name]) != 2 {
			t.Fatalf("a refresh touched %d names and grouped %d records under the first, want %d and 2", len(touched), len(byName[obs[0].RR.Name]), names)
		}
	})/names - recordShare
	t.Logf("beyond the record's slab share (%.4f) and the map: a new name %.4f allocs, a name's second record %.4f", recordShare, newName, grown)
	if newName > 0.01 {
		t.Errorf("a refresh over new names cost %.4f allocations a name beyond the record and the map, budget 0.01", newName)
	}
	if grown > 0.01 {
		t.Errorf("a name's second record cost %.4f allocations beyond its slab share, want a run's share (budget 0.01)", grown)
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

// BenchmarkMerge folds the fixture's two shards; Merge spends them, so each
// iteration builds its fixture with the timer stopped.
func BenchmarkMerge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _ := mergeFixture()
		b.StartTimer()
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
