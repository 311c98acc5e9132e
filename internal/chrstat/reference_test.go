package chrstat

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
)

// refCollector is the collector as Section III-C describes it and no more: a
// plain map keyed by the spelled-out (name, type, rdata), and two name sets.
type refCollector struct {
	records  map[string]*refRecord
	order    []string // the keys of records, first seen first
	queried  map[string]bool
	resolved map[string]bool
	totals   [4]uint64 // below, above, belowNX, aboveNX
}

type refRecord struct {
	recordSummary
	rdata  dnsmsg.RData
	seenBy refClients
}

func newRefCollector() *refCollector {
	return &refCollector{records: make(map[string]*refRecord), queried: make(map[string]bool), resolved: make(map[string]bool)}
}

func (r *refCollector) observe(ob resolver.Observation, below bool) {
	side := 1
	if below {
		side = 0
		if ob.QName != "" {
			r.queried[ob.QName] = true
		}
	}
	r.totals[side]++
	if ob.RCode != dnsmsg.RCodeNoError {
		r.totals[side+2]++
		return
	}
	if ob.RR.Name == "" {
		return
	}
	key := spellRR(ob.RR)
	rec := r.records[key]
	if rec == nil {
		rec = &refRecord{rdata: ob.RR.RData}
		rec.name, rec.typ, rec.ttl, rec.category = ob.RR.Name, ob.RR.Type, ob.RR.TTL, ob.Category
		r.records[key] = rec
		r.order = append(r.order, key)
	}
	if !below {
		rec.above++
		return
	}
	rec.below++
	rec.seenBy.track(ob.ClientID)
	r.resolved[ob.RR.Name] = true
}

// countNames is QueriedNames or ResolvedNames over one of the model's sets.
func countNames(set map[string]bool, pred func(string) bool) (total, matching int) {
	for name := range set {
		total++
		if pred != nil && pred(name) {
			matching++
		}
	}
	return total, matching
}

// compareWithReference checks everything a collector reports against the
// model that saw the same observations in the same order.
func compareWithReference(t *testing.T, c *Collector, ref *refCollector) {
	t.Helper()
	var totals [4]uint64
	totals[0], totals[1], totals[2], totals[3] = c.Totals()
	if totals != ref.totals {
		t.Errorf("Totals = %v, the model says %v", totals, ref.totals)
	}
	if c.NumRecords() != len(ref.records) {
		t.Errorf("NumRecords = %d, the model holds %d", c.NumRecords(), len(ref.records))
	}
	records := c.Records()
	if len(records) != len(ref.records) {
		t.Fatalf("Records lists %d, the model holds %d", len(records), len(ref.records))
	}
	seen := make(map[string]bool)
	for _, st := range records {
		rec, ok := ref.records[spell(st)]
		if !ok || seen[spell(st)] {
			t.Fatalf("Records lists %q, which the model lacks or which was listed already", spell(st))
		}
		seen[spell(st)] = true
		n, saturated := st.Clients()
		got := recordSummary{st.Name, st.Type, st.TTL, st.Category, st.Below, st.Above, n, saturated}
		want := rec.recordSummary
		want.clients, want.saturated = len(rec.seenBy.ids), rec.seenBy.saturated
		if got != want || st.RData != rec.rdata {
			t.Errorf("%s: %+v, the model says %+v", spell(st), got, want)
		}
	}

	// ByName: the names that own a record, each with its records first seen
	// first.
	wantByName := make(map[string][]string)
	for _, key := range ref.order {
		name := ref.records[key].name
		wantByName[name] = append(wantByName[name], key)
	}
	gotByName := make(map[string][]string)
	for name, group := range c.ByName() {
		for _, st := range group {
			if st.Name != name {
				t.Errorf("ByName groups a record of %s under %s", st.Name, name)
			}
			gotByName[name] = append(gotByName[name], spell(st))
		}
	}
	if !reflect.DeepEqual(gotByName, wantByName) {
		t.Errorf("ByName = %v\nthe model, in first-seen order: %v", gotByName, wantByName)
	}

	for _, pred := range []func(string) bool{nil, func(name string) bool { return strings.Contains(name, ".z1.") }} {
		gt, gm := c.QueriedNames(pred)
		if wt, wm := countNames(ref.queried, pred); gt != wt || gm != wm {
			t.Errorf("QueriedNames = (%d, %d), the model says (%d, %d)", gt, gm, wt, wm)
		}
		gt, gm = c.ResolvedNames(pred)
		if wt, wm := countNames(ref.resolved, pred); gt != wt || gm != wm {
			t.Errorf("ResolvedNames = (%d, %d), the model says (%d, %d)", gt, gm, wt, wm)
		}
	}
}

// tapped is one observation and the side it was seen from.
type tapped struct {
	ob    resolver.Observation
	below bool
}

// randomObservations draws n observations over a small population — thirty
// names, five payloads — so that names own several records and most
// observations repeat one: answers under the queried name and under a CNAME
// target (QName != RR.Name, some targets never queried themselves),
// NXDOMAIN and NODATA on both sides, records only ever seen above, no QName at
// all, and one hot record that collects clients well past the tracking cap.
// TTL and category vary by observation, so that the first sighting shows.
func randomObservations(rng *rand.Rand, n, servers int) []tapped {
	payloads := []struct {
		typ   dnsmsg.Type
		rdata dnsmsg.RData
	}{
		{dnsmsg.TypeA, dnsmsg.IPv4(198, 18, 0, 1)},
		{dnsmsg.TypeA, dnsmsg.IPv4(198, 18, 0, 2)},
		{dnsmsg.TypeAAAA, dnsmsg.Text("2001:db8:0:0:0:0:0:1")},
		{dnsmsg.TypeCNAME, dnsmsg.Text("edge.cdn.test")},
		{dnsmsg.TypeTXT, dnsmsg.Text("edge.cdn.test")}, // the CNAME's payload, under another type
	}
	name := func() string { return fmt.Sprintf("h%d.z%d.test", rng.Intn(10), rng.Intn(3)) }
	out := make([]tapped, n)
	for i := range out {
		p := payloads[rng.Intn(len(payloads))]
		ob := resolver.Observation{
			Time: t0, ClientID: uint32(rng.Intn(40)), Server: rng.Intn(servers), QName: name(),
			Category: cache.Category(rng.Intn(2)),
		}
		ob.RR = dnsmsg.RR{Name: ob.QName, Type: p.typ, Class: dnsmsg.ClassIN, TTL: uint32(30 * (1 + rng.Intn(4))), RData: p.rdata}
		below := rng.Intn(3) > 0
		switch rng.Intn(16) {
		case 0:
			ob.RCode, ob.RR = dnsmsg.RCodeNXDomain, dnsmsg.RR{}
			ob.QName = "typo-" + ob.QName
		case 1:
			ob.RR = dnsmsg.RR{} // NODATA
		case 2, 3:
			ob.RR.Name = "target-" + name() // the answer sits under a CNAME's target
		case 4:
			ob.RR.Name, below = "above-only-"+ob.RR.Name, false
		case 5:
			ob.QName = ""
		case 6, 7:
			ob.QName, ob.ClientID, below = "hot.z1.test", uint32(rng.Intn(150)), true
			ob.RR.Name, ob.RR.Type, ob.RR.RData = ob.QName, dnsmsg.TypeA, payloads[0].rdata
		}
		out[i] = tapped{ob, below}
	}
	return out
}

// TestMatchesReference feeds ten seeds of random observations to a Collector,
// and to three shards, beside the model, and compares everything they report
// a dozen times on the way: Records, ByName and its order, NumRecords,
// Totals, the name counts with and without a predicate, Clients() up to and
// past saturation — and, for the shards, the Counts view against the copying
// fold at every refresh, and Merge at the end. A fold reports what one
// collector reports that saw shard 0's observations, then shard 1's, then
// shard 2's, so that is the order the model sees them in.
func TestMatchesReference(t *testing.T) {
	const shards = 3
	var saturated, multi, cnameOnly int
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := randomObservations(rng, 3000, shards)

		c, ref := NewCollector(), newRefCollector()
		s := NewShardedCollector(shards)
		var view Counts
		var byShard *refCollector
		touched := make(map[string]bool)
		for i, o := range stream {
			ref.observe(o.ob, o.below)
			if o.below {
				c.ObserveBelow(o.ob)
				s.ObserveBelow(o.ob)
			} else {
				c.ObserveAbove(o.ob)
				s.ObserveAbove(o.ob)
			}
			if o.ob.RCode == dnsmsg.RCodeNoError && o.ob.RR.Name != "" {
				touched[o.ob.RR.Name] = true
			}
			if i%250 != 249 && i != 0 {
				continue
			}
			compareWithReference(t, c, ref)
			byShard = newRefCollector()
			for server := 0; server < shards; server++ {
				for _, o := range stream[:i+1] {
					if o.ob.Server == server {
						byShard.observe(o.ob, o.below)
					}
				}
			}
			compareWithReference(t, mergeCopy(s), byShard)
			checkCountsEqualMerge(t, &view, s, touched)
			clear(touched)
			if t.Failed() {
				t.Fatalf("seed %d, after %d observations", seed, i+1)
			}
		}
		// The last refresh came after the last observation: the consuming
		// Merge ends the stream.
		compareWithReference(t, checkMergeMatchesCopy(t, s), byShard)
		if t.Failed() {
			t.Fatalf("seed %d, the consuming Merge", seed)
		}
		for _, rec := range ref.records {
			if rec.seenBy.saturated {
				saturated++
			}
			if !ref.queried[rec.name] && ref.resolved[rec.name] {
				cnameOnly++
			}
		}
		for _, group := range c.ByName() {
			if len(group) >= 3 {
				multi++
			}
		}
		if at := slices.IndexFunc(c.Records(), func(st *RRStat) bool { return st.Below == 0 }); at < 0 {
			t.Errorf("seed %d: no record was seen above only", seed)
		}
	}
	if saturated == 0 || multi == 0 || cnameOnly == 0 {
		t.Errorf("%d records saturated, %d names own three records or more, %d records sit under names resolved but never queried: the test lost its point",
			saturated, multi, cnameOnly)
	}
}
