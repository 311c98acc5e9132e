package chrstat

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/slab"
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
	merged := mergeCopy(s)
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

// absorb copies src into c and leaves src as it was: the oracle the
// in-place fold is held to, and a merge a test may repeat in the middle of
// a stream.
func (c *Collector) absorb(src *Collector) {
	c.belowTotal += src.belowTotal
	c.aboveTotal += src.aboveTotal
	c.belowNX += src.belowNX
	c.aboveNX += src.aboveNX
	for _, from := range src.entries.All {
		if from.name == "" {
			continue // a fold zeroed it
		}
		e := c.entry(from.name)
		e.queried = e.queried || from.queried
		for st := from.head; st != nil; st = st.next {
			rr := dnsmsg.RR{Name: st.Name, Type: st.Type, TTL: st.TTL, RData: st.RData}
			c.stat(rr, st.Category).absorb(st, &c.blocks)
		}
	}
}

// mergeCopy absorbs every shard of s into a fresh collector, in server
// order, and leaves s as it was.
func mergeCopy(s *ShardedCollector) *Collector {
	out := NewCollector()
	for _, sh := range s.shards {
		out.absorb(sh)
	}
	return out
}

// checkMergeMatchesCopy spends s with Merge and holds the result to
// mergeCopy's of the same shards: everything summarize reports, each name's
// records in the same order, and the same client ids retained — as sets,
// since a relinked record keeps its ids in arrival order where the copy
// inserts them sorted. It returns what Merge returned.
func checkMergeMatchesCopy(t *testing.T, s *ShardedCollector) *Collector {
	t.Helper()
	want := mergeCopy(s)
	got := s.Merge()
	if g, w := summarize(got), summarize(want); !reflect.DeepEqual(g, w) {
		t.Errorf("Merge = %+v\nthe copying fold = %+v", g, w)
	}
	if g, w := spellByName(got), spellByName(want); !reflect.DeepEqual(g, w) {
		t.Errorf("Merge groups %v\nthe copying fold %v", g, w)
	}
	g, w := retainedClients(got), retainedClients(want)
	for _, ids := range g {
		slices.Sort(ids)
	}
	for _, ids := range w {
		slices.Sort(ids)
	}
	if !reflect.DeepEqual(g, w) {
		t.Errorf("Merge retained other client ids than the copying fold")
	}
	return got
}

// spellByName lists each name's records, spelled, in the collector's order.
func spellByName(c *Collector) map[string][]string {
	out := make(map[string][]string)
	for name, group := range c.ByName() {
		for _, st := range group {
			out[name] = append(out[name], spell(st))
		}
	}
	return out
}

// TestMergeSpendsShards: Merge hands its shards to the result, so a second
// Merge, an observation or a refresh after it would count into the merged
// window or count it twice. Each panics, naming the misuse, and the merged
// collector keeps what it had.
func TestMergeSpendsShards(t *testing.T) {
	s := NewShardedCollector(2)
	ob := obBelow(rrA("spent.example.com", "192.0.2.1"), cache.CategoryOther)
	ob.Server = 1
	s.ObserveBelow(ob)
	merged := s.Merge()
	for _, misuse := range []struct {
		name string
		use  func()
	}{
		{"a second Merge", func() { s.Merge() }},
		{"ObserveBelow", func() { s.ObserveBelow(ob) }},
		{"ObserveAbove", func() { s.ObserveAbove(ob) }},
		{"a Counts refresh", func() { new(Counts).Refresh(s) }},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			misuse.use()
			return ""
		}()
		if !strings.Contains(msg, "Merge already spent") {
			t.Errorf("%s after Merge: panic %q, want one naming the spent collector", misuse.name, msg)
		}
	}
	if below, _, _, _ := merged.Totals(); below != 1 || merged.NumRecords() != 1 {
		t.Errorf("after the misuses the merged collector counts %d observations and %d records, want 1 and 1", below, merged.NumRecords())
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

	// At the end of the stream, Merge folds in place what the copy folds.
	checkMergeMatchesCopy(t, s)

	v.Reset()
	if got, _ := v.Refresh(NewShardedCollector(3)); len(got) != 0 {
		t.Errorf("after Reset the view still groups %d names", len(got))
	}
	v.Reset()
	if !reflect.ValueOf(&v).Elem().IsZero() {
		t.Error("Reset leaves something in the view")
	}
}

// statChunk is how many RRStats a slab chunk holds.
var statChunk = slab.PerChunk[RRStat]()

// TestRecordSize pins the record at 104 bytes, 78 to an 8 KiB slab chunk: a
// resolver's live heap is mostly these (sim-day holds 300 k of them). It went
// 88 → 120 → 104. It was 88 while a map keyed by (name, type, rdata) told
// records apart; the 24 bytes of rdata and the 8 of the link to the name's
// next record are what it costs to be found by name alone, and they bought
// back a 40-byte key in every map slot, the queried-names and resolved-names
// sets, and two of the three hashes an observation paid. The 16 came back
// when the spilled client ids moved from a slice (24 bytes) to a chain of
// collector-owned blocks (a pointer, 8). The collector's other slab
// elements are pinned too, a client block at 64 bytes and a name's entry at
// 32, 255 to a chunk: it went 16 → 32 when the index by name stopped being
// a Go map, whose slots held the name's string header beside the entry's
// pointer (24 bytes a slot before the map's own slack), and became a table
// of 8-byte buckets filing entries by number, so the entry holds the name
// and its fingerprint. Both have a pointer: slab.TestChunkFitsSizeClass
// holds chunks of those shapes to their size class.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(RRStat{}); got != 104 {
		t.Errorf("RRStat is %d bytes, want 104", got)
	}
	if statChunk != 78 {
		t.Errorf("a slab chunk holds %d records, want 78", statChunk)
	}
	if got := unsafe.Sizeof(nameEntry{}); got != 32 {
		t.Errorf("nameEntry is %d bytes, want 32", got)
	}
	if got := slab.PerChunk[nameEntry](); got != 255 {
		t.Errorf("a slab chunk holds %d name entries, want 255", got)
	}
	if got := unsafe.Sizeof(clientBlock{}); got != 64 {
		t.Errorf("clientBlock is %d bytes, want 64", got)
	}
}

// fingerprintTwins returns two names that share a fingerprint under this
// process's seed, found by search: a pair turns up after about 2^16 names.
func fingerprintTwins(t *testing.T) [2]string {
	t.Helper()
	seen := make(map[uint32]string)
	for i := range 1 << 22 {
		name := "c" + strconv.Itoa(i) + ".fp.example.com"
		fp := fingerprint(name)
		if twin, ok := seen[fp]; ok {
			return [2]string{twin, name}
		}
		seen[fp] = name
	}
	t.Fatal("no two of 4 M names share a fingerprint")
	return [2]string{}
}

// TestFingerprintCollision: two names under one fingerprint stay two names,
// each with its own records, when one collector observes both, when a fold
// brings one to a shard that holds the other, and when both shards hold
// both: the index finds a name by its fingerprint and then compares it.
func TestFingerprintCollision(t *testing.T) {
	twins := fingerprintTwins(t)
	ips := [2][]string{{"127.0.3.17", "127.0.3.18"}, {"127.0.3.17"}}
	observe := func(c interface{ ObserveBelow(resolver.Observation) }, server int, which ...int) {
		for _, i := range which {
			for _, ip := range ips[i] {
				ob := obBelow(rrA(twins[i], ip), cache.CategoryDisposable)
				ob.Server = server
				c.ObserveBelow(ob)
			}
		}
	}
	check := func(what string, c *Collector, below uint64) {
		t.Helper()
		byName := c.ByName()
		if queried, _ := c.QueriedNames(nil); c.NumNames() != 2 || queried != 2 || len(byName) != 2 || c.NumRecords() != 3 {
			t.Fatalf("%s: %d names (%d queried, %d grouped), %d records; want 2 names of 3 records", what, c.NumNames(), queried, len(byName), c.NumRecords())
		}
		for i, name := range twins {
			if len(byName[name]) != len(ips[i]) {
				t.Errorf("%s: %s owns %d records, want %d", what, name, len(byName[name]), len(ips[i]))
			}
			for _, st := range byName[name] {
				if st.Name != name || st.Below != below {
					t.Errorf("%s: %s groups %s observed %d times, want itself %d times", what, name, spell(st), st.Below, below)
				}
			}
		}
	}

	c := NewCollector() // the twins' observations interleaved, so each lookup probes
	for _, o := range []struct {
		twin int
		ip   string
	}{{0, ips[0][0]}, {1, ips[1][0]}, {0, ips[0][1]}} {
		c.ObserveBelow(obBelow(rrA(twins[o.twin], o.ip), cache.CategoryDisposable))
	}
	check("one collector", c, 1)
	s := NewShardedCollector(2)
	observe(s, 0, 0)
	observe(s, 1, 1)
	check("a fold of disjoint shards", s.Merge(), 1)
	s = NewShardedCollector(2)
	observe(s, 0, 0, 1)
	observe(s, 1, 1, 0)
	check("a fold of shards that hold both", s.Merge(), 2)
}
