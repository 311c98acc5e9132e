package chrstat

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/slab"
)

// refClients is the client set as a map, by the rules trackClient keeps: a
// new id is counted until maxTrackedClients are, the next new one saturates,
// and nothing is looked at after that. order lists the counted ids as they
// arrived.
type refClients struct {
	ids       map[uint32]struct{}
	order     []uint32
	saturated bool
}

func (r *refClients) track(id uint32) {
	if r.saturated {
		return
	}
	if _, ok := r.ids[id]; ok {
		return
	}
	if len(r.ids) >= maxTrackedClients {
		r.saturated = true
		return
	}
	if r.ids == nil {
		r.ids = make(map[uint32]struct{})
	}
	r.ids[id] = struct{}{}
	r.order = append(r.order, id)
}

// TestClientSetMatchesReferenceMap drives trackClient beside the map over
// random id streams and compares Clients() after every id. The small id
// spaces repeat ids constantly and stay inline or just spill; the large ones
// run through the spill, the cap, the saturating 65th id and repeats after
// it. The record must hold the map's ids in arrival order, inline and
// through its chain of blocks: which ids absorb keeps when a merge saturates
// depends on that.
func TestClientSetMatchesReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spaces := []int{1, 3, 5, 8, 64, 65, 70, 200, 1 << 20}
	reached := make(map[int]bool) // distinct-client counts seen, and 65 for saturation
	for stream := 0; stream < 1500; stream++ {
		space := spaces[stream%len(spaces)]
		var st RRStat
		var ref refClients
		var blocks slab.Slab[clientBlock]
		for i, length := 0, rng.Intn(301); i <= length; i++ {
			if i > 0 { // the empty set is compared too
				id := uint32(rng.Intn(space))
				if space > 1000 {
					id *= 4099 // spread over the high bits too
				}
				st.trackClient(id, &blocks)
				ref.track(id)
			}
			n, saturated := st.Clients()
			if n != len(ref.ids) || saturated != ref.saturated {
				t.Fatalf("stream %d (ids below %d), after %d ids: Clients() = (%d, %v), the map says (%d, %v)",
					stream, space, i, n, saturated, len(ref.ids), ref.saturated)
			}
			reached[n] = true
			if saturated {
				reached[maxTrackedClients+1] = true
			}
		}
		if got := trackedIDs(&st); !slices.Equal(got, ref.order) {
			t.Fatalf("stream %d: the set holds %v, want %v in arrival order", stream, got, ref.order)
		}
	}
	for _, n := range []int{0, inlineClients, inlineClients + 1, maxTrackedClients, maxTrackedClients + 1} {
		if !reached[n] {
			t.Errorf("no stream reached %d distinct clients: the test lost its point", n)
		}
	}
}

// summary is what a collector reports, in comparable form.
type summary struct {
	totals            [4]uint64
	queried, resolved int
	records           map[string]recordSummary // by spell
}

// spell is a record's identity written out: name, type and rdata.
func spell(st *RRStat) string {
	return spellRR(dnsmsg.RR{Name: st.Name, Type: st.Type, RData: st.RData})
}

func spellRR(rr dnsmsg.RR) string {
	return fmt.Sprintf("%s %v %s", rr.Name, rr.Type, rr.RData.Format(rr.Type))
}

type recordSummary struct {
	name         string
	typ          dnsmsg.Type
	ttl          uint32
	category     cache.Category
	below, above uint64
	clients      int
	saturated    bool
}

func summarize(c *Collector) summary {
	s := summary{records: make(map[string]recordSummary)}
	s.totals[0], s.totals[1], s.totals[2], s.totals[3] = c.Totals()
	s.queried, _ = c.QueriedNames(nil)
	s.resolved, _ = c.ResolvedNames(nil)
	for st := range c.all {
		n, saturated := st.Clients()
		s.records[spell(st)] = recordSummary{st.Name, st.Type, st.TTL, st.Category, st.Below, st.Above, n, saturated}
	}
	return s
}

// trackedIDs lists a record's tracked client ids in stored order: the
// inline ones, then each block's through the chain.
func trackedIDs(st *RRStat) []uint32 {
	ids := append([]uint32(nil), st.inlineIDs()...)
	for b := st.more; b != nil; b = b.next {
		ids = append(ids, b.ids[:min(int(st.nclients)-len(ids), blockClients)]...)
	}
	return ids
}

func retainedClients(c *Collector) map[string][]uint32 {
	out := make(map[string][]uint32)
	for st := range c.all {
		out[spell(st)] = trackedIDs(st)
	}
	return out
}

// TestMergeMatchesSequentialCollector: a fold of 2–4 shards reports what one
// Collector fed the shards' streams one after the other reports — counts,
// name sets, and every record's client count and saturation — whether the
// shards' client sets are disjoint (hash affinity) or overlap, below the cap
// and past it; and folding again gives the same collector down to the ids
// retained, whatever order the maps iterate in. The repeated folds are the
// copying oracle's, which leaves the shards intact; the consuming Merge
// ends each round and must equal it.
func TestMergeMatchesSequentialCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// How a merged record came to saturate: a shard already had, or only the
	// union did.
	var byShard, byUnion, unsaturated int
	for round := 0; round < 12; round++ {
		shards := 2 + round%3
		disjoint := round%2 == 0
		clientSpace := []int{3, 40, 90, 400}[round%4] // per shard when disjoint
		s := NewShardedCollector(shards)
		streams := make([][]func(*Collector), shards)
		for i := 0; i < 6000; i++ {
			server := rng.Intn(shards)
			// Few records, so that some collect clients past the cap.
			rr := rrA(fmt.Sprintf("h%d.example.com", rng.Intn(12)), fmt.Sprintf("198.18.0.%d", rng.Intn(2)))
			rr.TTL = uint32(60 * (server + 1))
			ob := obBelow(rr, cache.Category(rng.Intn(2)))
			ob.Server, ob.ClientID = server, uint32(rng.Intn(clientSpace))
			if disjoint {
				ob.ClientID = ob.ClientID*uint32(shards) + uint32(server)
			}
			switch rng.Intn(8) {
			case 0:
				s.ObserveAbove(ob)
				streams[server] = append(streams[server], func(c *Collector) { c.ObserveAbove(ob) })
				continue
			case 1:
				ob.RCode = dnsmsg.RCodeNXDomain
				ob.QName = "missing-" + ob.QName
			}
			s.ObserveBelow(ob)
			streams[server] = append(streams[server], func(c *Collector) { c.ObserveBelow(ob) })
		}
		sequential := NewCollector()
		for _, stream := range streams {
			for _, observe := range stream {
				observe(sequential)
			}
		}

		merged := mergeCopy(s)
		want := summarize(sequential)
		if got := summarize(merged); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (%d shards, disjoint %v, %d clients): Merge = %+v\nsequential = %+v", round, shards, disjoint, clientSpace, got, want)
		}
		for st := range merged.all {
			inShard := false
			for i := 0; i < shards; i++ {
				if sh := s.shards[i].lookup(st.Name, st.Type, st.RData); sh != nil && sh.clientsOverflow {
					inShard = true
				}
			}
			switch {
			case inShard:
				byShard++
			case st.clientsOverflow:
				byUnion++
			default:
				unsaturated++
			}
		}
		retained := retainedClients(merged)
		for again := 0; again < 20; again++ {
			m := mergeCopy(s)
			if got := summarize(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, merge %d differs from the first", round, again+2)
			}
			if got := retainedClients(m); !reflect.DeepEqual(got, retained) {
				t.Fatalf("round %d, merge %d retained other client ids than the first", round, again+2)
			}
		}
		if got := summarize(checkMergeMatchesCopy(t, s)); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (%d shards, disjoint %v, %d clients): the consuming Merge = %+v\nsequential = %+v", round, shards, disjoint, clientSpace, got, want)
		}
	}
	if byShard == 0 || byUnion == 0 || unsaturated == 0 {
		t.Errorf("records saturated in a shard %d, by union only %d, not at all %d: the test lost its point", byShard, byUnion, unsaturated)
	}
}

// TestStatPointersStable: the slab never moves a record it has handed out.
func TestStatPointersStable(t *testing.T) {
	c := NewCollector()
	const records = 10000
	rrs := make([]dnsmsg.RR, records)
	held := make([]*RRStat, records)
	for i := range rrs {
		rrs[i] = rrA(fmt.Sprintf("h%d.example.com", i), "192.0.2.1")
		rrs[i].TTL = uint32(i)
		held[i] = c.stat(rrs[i], cache.Category(i%2))
		held[i].Below = uint64(i)
		held[i].trackClient(uint32(i), &c.blocks)
	}
	if c.NumRecords() != records {
		t.Fatalf("%d records, want %d", c.NumRecords(), records)
	}
	for i, rr := range rrs {
		st := c.stat(rr, 0)
		if st != held[i] {
			t.Fatalf("record %d moved: %p, was %p", i, st, held[i])
		}
		n, _ := st.Clients()
		if st.Name != rr.Name || st.Type != rr.Type || st.TTL != uint32(i) || st.Category != cache.Category(i%2) ||
			st.Below != uint64(i) || n != 1 || st.clients[0] != uint32(i) {
			t.Fatalf("record %d changed: %+v", i, *st)
		}
	}
}
