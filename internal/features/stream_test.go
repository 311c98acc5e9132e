package features

import (
	"fmt"
	"testing"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dntree"
	"dnsnoise/internal/resolver"
)

// TestFromGroupCachedBitIdentical pins the streaming equivalence property
// at the feature layer: the miner's way — cached entropies, one scratch
// across groups — must produce the exact same vector (==, not
// approximately) as the batch extractor, cold and warm. Forgetting a name
// only costs a recomputation.
func TestFromGroupCachedBitIdentical(t *testing.T) {
	tr := dntree.New(nil)
	col := chrstat.NewCollector()
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("u%08x.api.zone.example.com", i*2654435761)
		tr.Insert(name)
		ob := resolver.Observation{
			QName: name,
			RR:    dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, RData: dnsmsg.IPv4(10, 0, 0, 1), TTL: 30},
		}
		col.ObserveBelow(ob)
		if i%3 == 0 {
			col.ObserveAbove(ob)
		}
	}
	byName := col.ByName()
	cache := NewEntropyCache()
	var sc Scratch
	for pass := 0; pass < 3; pass++ { // cold cache, warm, partly forgotten
		for _, g := range tr.GroupsUnder("example.com") {
			want := FromGroup(g, byName)
			if got := sc.FromGroup(g, byName, cache); got != want {
				t.Fatalf("pass %d depth %d: cached %+v != batch %+v", pass, g.Depth, got, want)
			}
		}
		if cache.Len() == 0 {
			t.Fatal("cache stayed empty")
		}
		if before := cache.Len(); pass == 1 {
			cache.Forget("api.zone.example.com")
			if cache.Len() >= before {
				t.Fatalf("Forget left all %d labels cached", before)
			}
		}
	}
	cache.Reset()
	if cache.Len() != 0 {
		t.Fatal("Reset did not clear the cache")
	}
}
