package pdns

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
)

// refStore is the rpDNS database as Section VI-C describes it and no more: a
// plain map keyed by the spelled-out (name, type, rdata), first sighting
// kept.
type refStore map[string]Record

func spell(name string, t dnsmsg.Type, d dnsmsg.RData) string {
	return fmt.Sprintf("%s %v %s", name, t, d.Format(t))
}

func (r refStore) insert(rr dnsmsg.RR, cat cache.Category, at time.Time) {
	key := spell(rr.Name, rr.Type, rr.RData)
	if _, ok := r[key]; !ok {
		r[key] = Record{Name: rr.Name, Type: rr.Type, RData: rr.RData, FirstSeen: at, Category: cat}
	}
}

// merged is MergeStores by its contract: the earliest sighting of a record
// wins, the earlier store where two agree.
func (r refStore) merged(other refStore) refStore {
	out := make(refStore)
	for key, rec := range r {
		out[key] = rec
	}
	for key, rec := range other {
		if prev, ok := out[key]; !ok || rec.FirstSeen.Before(prev.FirstSeen) {
			out[key] = rec
		}
	}
	return out
}

func (r refStore) days(series []func(*Record) bool) []DayCounts {
	byDay := make(map[int64]*DayCounts)
	for _, rec := range r {
		day := rec.FirstSeen.Unix() / 86400
		dc := byDay[day]
		if dc == nil {
			dc = &DayCounts{Date: time.Unix(day*86400, 0).UTC(), PerSeries: make([]int, len(series))}
			byDay[day] = dc
		}
		dc.New++
		if rec.Category == cache.CategoryDisposable {
			dc.Disposable++
		}
		for i, pred := range series {
			if pred(&rec) {
				dc.PerSeries[i]++
			}
		}
	}
	out := make([]DayCounts, 0, len(byDay))
	for _, dc := range byDay {
		out = append(out, *dc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Date.Before(out[j].Date) })
	return out
}

func (r refStore) collapse(zoneOf func(string) (string, bool)) CollapseResult {
	res := CollapseResult{Before: len(r)}
	wildcards := make(map[string]bool)
	for _, rec := range r {
		if zone, ok := zoneOf(rec.Name); ok {
			res.Collapsed++
			wildcards["*."+zone] = true
		} else {
			res.After++
			res.BytesAfter += uint64(len(rec.Name) + len(rec.RData.Format(rec.Type)) + 24)
		}
	}
	for owner := range wildcards {
		res.BytesAfter += uint64(len(owner) + 24)
	}
	res.Wildcards = len(wildcards)
	res.After += res.Wildcards
	return res
}

// compareWithReference checks everything a store reports against the model.
func compareWithReference(t *testing.T, s *Store, ref refStore, series []func(*Record) bool) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Errorf("Len = %d, the model holds %d", s.Len(), len(ref))
	}
	got := make(refStore)
	for _, rec := range s.Records() {
		key := spell(rec.Name, rec.Type, rec.RData)
		if _, dup := got[key]; dup {
			t.Errorf("Records lists %q twice", key)
		}
		got[key] = Record{Name: rec.Name, Type: rec.Type, RData: rec.RData, FirstSeen: rec.FirstSeen, Category: rec.Category}
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("Records holds %d records that differ from the model's %d", len(got), len(ref))
	}
	var disposable int
	var bytes uint64
	for _, rec := range ref {
		if rec.Category == cache.CategoryDisposable {
			disposable++
		}
		bytes += uint64(len(rec.Name) + len(rec.RData.Format(rec.Type)) + 24)
	}
	if s.DisposableCount() != disposable {
		t.Errorf("DisposableCount = %d, the model says %d", s.DisposableCount(), disposable)
	}
	if s.StorageBytes() != bytes {
		t.Errorf("StorageBytes = %d, the model says %d", s.StorageBytes(), bytes)
	}
	if got, want := s.Days(), ref.days(series); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Errorf("Days = %+v\nthe model says %+v", got, want)
	}
	zoneOf := func(name string) (string, bool) {
		if i := strings.Index(name, ".z1."); i >= 0 {
			return name[i+1:], true
		}
		return "", false
	}
	if got, want := s.CollapseWildcards(zoneOf), ref.collapse(zoneOf); got != want {
		t.Errorf("CollapseWildcards = %+v, the model says %+v", got, want)
	}
}

// TestMatchesReference inserts ten seeds of random sightings — forty names,
// five payloads of which two differ in type alone, so names own several
// records and most sightings repeat one; three days, out of order — into two
// stores beside the model, and compares everything each reports, and what
// their merge in either order reports, on the way and at the end.
func TestMatchesReference(t *testing.T) {
	payloads := []struct {
		typ   dnsmsg.Type
		rdata dnsmsg.RData
	}{
		{dnsmsg.TypeA, dnsmsg.IPv4(198, 18, 0, 1)},
		{dnsmsg.TypeA, dnsmsg.IPv4(198, 18, 0, 200)},
		{dnsmsg.TypeAAAA, dnsmsg.Text("2001:db8:0:0:0:0:0:1")},
		{dnsmsg.TypeCNAME, dnsmsg.Text("edge.cdn.test")},
		{dnsmsg.TypeTXT, dnsmsg.Text("edge.cdn.test")},
	}
	series := []func(*Record) bool{
		func(rec *Record) bool { return strings.Contains(rec.Name, ".z0.") },
		func(rec *Record) bool { return rec.Type == dnsmsg.TypeA },
	}
	newStore := func() *Store {
		s := NewStore()
		s.AddSeries(series[0])
		s.AddSeries(series[1])
		return s
	}
	multi := 0
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stores := [2]*Store{newStore(), newStore()}
		refs := [2]refStore{{}, {}}
		for i := 0; i < 1500; i++ {
			p := payloads[rng.Intn(len(payloads))]
			rr := dnsmsg.RR{
				Name: fmt.Sprintf("h%d.z%d.test", rng.Intn(10), rng.Intn(4)),
				Type: p.typ, TTL: uint32(rng.Intn(600)), RData: p.rdata,
			}
			// Whole hours, so that the two stores often first see a record at
			// the same instant.
			at := day1.Add(time.Duration(rng.Intn(72)) * time.Hour)
			cat, pop := cache.Category(rng.Intn(2)), rng.Intn(2)
			stores[pop].Insert(rr, cat, at)
			refs[pop].insert(rr, cat, at)
			if i%300 != 299 && i != 0 {
				continue
			}
			compareWithReference(t, stores[0], refs[0], series)
			compareWithReference(t, stores[1], refs[1], series)
			compareWithReference(t, MergeStores(stores[0], stores[1]), refs[0].merged(refs[1]), series)
			compareWithReference(t, MergeStores(stores[1], nil, stores[0]), refs[1].merged(refs[0]), series)
			if t.Failed() {
				t.Fatalf("seed %d, after %d sightings", seed, i+1)
			}
		}
		owned := make(map[string]int)
		for _, rec := range refs[0] {
			if owned[rec.Name]++; owned[rec.Name] == 3 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Error("no name came to own three records: the test lost its point")
	}
}
