package chrstat

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
)

// observeRandom feeds n random observations over a small record population
// to random shards, and returns the owner names it touched. The TTL and the
// category depend on the shard, so which shard a merged record takes them
// from shows.
func observeRandom(s *ShardedCollector, rng *rand.Rand, n, names int) map[string]bool {
	touched := make(map[string]bool)
	for i := 0; i < n; i++ {
		rr := rrA(fmt.Sprintf("h%d.zone%d.example.com", rng.Intn(names), rng.Intn(4)), fmt.Sprintf("198.18.0.%d", rng.Intn(3)))
		if rng.Intn(4) == 0 {
			rr.Type = dnsmsg.TypeAAAA
		}
		server := rng.Intn(len(s.shards))
		rr.TTL = uint32(60 * (server + 1))
		ob := obBelow(rr, cache.Category(server%2))
		ob.Server, ob.ClientID = server, uint32(rng.Intn(100))
		if rng.Intn(3) == 0 {
			s.ObserveAbove(ob)
		} else {
			s.ObserveBelow(ob)
		}
		touched[rr.Name] = true
	}
	return touched
}

// checkCountsEqualMerge refreshes the view and compares it with Merge,
// record by record on the (name, type, rdata) key and name by name on the
// grouping; the names the refresh reports touched must be want's.
func checkCountsEqualMerge(t *testing.T, v *Counts, s *ShardedCollector, want map[string]bool) {
	t.Helper()
	byName, touched := v.Refresh(s)
	got := make(map[string]bool)
	for _, name := range touched {
		got[name] = true
	}
	if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Errorf("the refresh touched %d names, the observations %d", len(got), len(want))
	}
	merged := s.Merge()
	if got := viewRecords(v); got != merged.NumRecords() {
		t.Fatalf("view holds %d records, Merge %d", got, merged.NumRecords())
	}
	for want := range merged.all {
		at := slices.IndexFunc(byName[want.Name], func(st *RRStat) bool { return st.is(want.Type, want.RData) })
		if at < 0 {
			t.Fatalf("view lacks %s", spell(want))
		}
		got := byName[want.Name][at]
		if got.Name != want.Name || got.TTL != want.TTL ||
			got.Category != want.Category || got.Below != want.Below || got.Above != want.Above {
			t.Errorf("%s: view %+v, Merge %+v", spell(want), *got, *want)
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

// viewRecords counts the records a view holds.
func viewRecords(v *Counts) (n int) {
	for _, group := range v.byName {
		n += len(group)
	}
	return n
}

func TestCountsEqualsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewShardedCollector(3)
	var v Counts
	checkCountsEqualMerge(t, &v, s, nil) // empty
	checkCountsEqualMerge(t, &v, s, observeRandom(s, rng, 2000, 40))

	// More of the same records, new records, and old records reaching
	// shards that had not seen them, between two refreshes.
	before := viewRecords(&v)
	checkCountsEqualMerge(t, &v, s, observeRandom(s, rng, 2000, 80))
	if viewRecords(&v) <= before {
		t.Fatalf("the second batch added no record (%d -> %d): the test lost its point", before, viewRecords(&v))
	}

	// Small batches: a refresh re-sums what its batch touched, from every
	// shard that holds it, and leaves the rest of the view alone.
	partial := 0
	for batch := 0; batch < 50; batch++ {
		touched := observeRandom(s, rng, 1+rng.Intn(40), 120)
		checkCountsEqualMerge(t, &v, s, touched)
		if len(touched) < len(v.byName)/2 {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("every small batch touched half the names: the test lost its point")
	}

	// A record that shard 1 saw first, and shard 0 since the last refresh,
	// takes shard 0's TTL and category, as it does in Merge.
	late := obBelow(rrA("late.example.com", "198.18.0.9"), cache.CategoryOther)
	late.Server, late.RR.TTL = 1, 120
	s.ObserveBelow(late)
	checkCountsEqualMerge(t, &v, s, map[string]bool{"late.example.com": true})
	late.Server, late.RR.TTL, late.Category = 0, 60, cache.CategoryDisposable
	s.ObserveBelow(late)
	checkCountsEqualMerge(t, &v, s, map[string]bool{"late.example.com": true})
	if st := v.byName["late.example.com"][0]; st.TTL != 60 || st.Category != cache.CategoryDisposable || st.Below != 2 {
		t.Errorf("a record seen by shard 1, then shard 0: %+v, want shard 0's TTL 60 and category, Below 2", *st)
	}

	// Nothing new: a refresh costs nothing.
	if allocs := testing.AllocsPerRun(5, func() { v.Refresh(s) }); allocs != 0 {
		t.Errorf("a refresh with nothing touched allocates %.0f objects, want 0", allocs)
	}

	// A second view finds the collector attached to another and starts from
	// every record it holds.
	var second Counts
	every := make(map[string]bool)
	for name := range v.byName {
		every[name] = true
	}
	checkCountsEqualMerge(t, &second, s, every)

	v.Reset()
	if got, _ := v.Refresh(NewShardedCollector(3)); len(got) != 0 {
		t.Errorf("after Reset the view still groups %d names", len(got))
	}
	v.Reset()
	if !reflect.ValueOf(&v).Elem().IsZero() {
		t.Error("Reset leaves something in the view")
	}
}

// TestRecordSize pins the record at 104 bytes, 78 to an 8 KiB slab chunk: a
// resolver's live heap is mostly these (sim-day holds 300 k of them). It went
// 88 → 120 → 104. It was 88 while a map keyed by (name, type, rdata) told
// records apart; the 24 bytes of rdata and the 8 of the link to the name's
// next record are what it costs to be found by name alone, and they bought
// back a 40-byte key in every map slot, the queried-names and resolved-names
// sets, and two of the three hashes an observation paid. The 16 came back
// when the spilled client ids moved from a slice (24 bytes) to a chain of
// collector-owned blocks (a pointer, 8).
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(RRStat{}); got != 104 {
		t.Errorf("RRStat is %d bytes, want 104", got)
	}
	if statChunk != 78 {
		t.Errorf("a slab chunk holds %d records, want 78", statChunk)
	}
}
