package chrstat

import (
	"fmt"
	"math/rand"
	"testing"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
)

// observeRandom feeds n random observations over a small record population
// to random shards. The TTL depends on the shard, so which shard a merged
// record takes its TTL from shows.
func observeRandom(s *ShardedCollector, rng *rand.Rand, n, names int) {
	for i := 0; i < n; i++ {
		rr := rrA(fmt.Sprintf("h%d.zone%d.example.com", rng.Intn(names), rng.Intn(4)), fmt.Sprintf("198.18.0.%d", rng.Intn(3)))
		if rng.Intn(4) == 0 {
			rr.Type = dnsmsg.TypeAAAA
		}
		server := rng.Intn(s.NumShards())
		rr.TTL = uint32(60 * (server + 1))
		ob := obBelow(rr, cache.Category(rng.Intn(2)))
		ob.Server, ob.ClientID = server, uint32(rng.Intn(100))
		if rng.Intn(3) == 0 {
			s.ObserveAbove(ob)
		} else {
			s.ObserveBelow(ob)
		}
	}
}

// checkCountsEqualMerge compares the view with Merge, record by record on
// the (name, type, rdata) key and name by name on the grouping.
func checkCountsEqualMerge(t *testing.T, v *Counts, s *ShardedCollector) {
	t.Helper()
	byName := v.Refresh(s)
	merged := s.Merge()
	if len(v.perRR) != len(merged.perRR) {
		t.Fatalf("view holds %d records, Merge %d", len(v.perRR), len(merged.perRR))
	}
	for key, want := range merged.perRR {
		got, ok := v.perRR[key]
		if !ok {
			t.Fatalf("view lacks %v", key)
		}
		if got.Name != want.Name || got.Type != want.Type || got.TTL != want.TTL ||
			got.Category != want.Category || got.Below != want.Below || got.Above != want.Above {
			t.Errorf("%v: view %+v, Merge %+v", key, *got, *want)
		}
	}
	mergedByName := merged.ByName()
	if len(byName) != len(mergedByName) {
		t.Fatalf("view groups %d names, Merge %d", len(byName), len(mergedByName))
	}
	for name, want := range mergedByName {
		if len(byName[name]) != len(want) {
			t.Errorf("%s: view groups %d records, Merge %d", name, len(byName[name]), len(want))
		}
		for _, st := range byName[name] {
			if st.Name != name {
				t.Errorf("%s: grouped a record of %s", name, st.Name)
			}
		}
	}
}

func TestCountsEqualsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewShardedCollector(3)
	var v Counts
	checkCountsEqualMerge(t, &v, s) // empty
	observeRandom(s, rng, 2000, 40)
	checkCountsEqualMerge(t, &v, s)

	// More of the same records, new records, and old records reaching
	// shards that had not seen them, between two refreshes.
	before := len(v.perRR)
	observeRandom(s, rng, 2000, 80)
	checkCountsEqualMerge(t, &v, s)
	if len(v.perRR) <= before {
		t.Fatalf("the second batch added no record (%d -> %d): the test lost its point", before, len(v.perRR))
	}

	// Nothing new: a refresh re-sums in place.
	if allocs := testing.AllocsPerRun(5, func() { v.Refresh(s) }); allocs != 0 {
		t.Errorf("a refresh over known records allocates %.0f objects, want 0", allocs)
	}

	v.Reset()
	if got := v.Refresh(NewShardedCollector(3)); len(got) != 0 {
		t.Errorf("after Reset the view still groups %d names", len(got))
	}
}
