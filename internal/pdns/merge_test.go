package pdns

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
)

// TestMergeStoresMatchesSingle partitions one insert stream across three
// stores (by client-style round-robin, with deliberate cross-partition
// duplicates) and checks the merged store is indistinguishable from a
// single store fed the full stream in time order: same record set, same
// FirstSeen per record, same per-day accounting.
func TestMergeStoresMatchesSingle(t *testing.T) {
	day0 := time.Date(2010, 2, 1, 0, 0, 0, 0, time.UTC)
	type ins struct {
		rr  dnsmsg.RR
		cat cache.Category
		at  time.Time
	}
	var stream []ins
	for i := 0; i < 400; i++ {
		name := fmt.Sprintf("h%d.zone%d.example.com", i%120, i%7)
		cat := cache.CategoryOther
		if i%3 == 0 {
			cat = cache.CategoryDisposable
		}
		stream = append(stream, ins{
			rr:  dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, TTL: 60, RData: dnsmsg.IPv4(10, 0, 0, byte(i%50))},
			cat: cat,
			at:  day0.Add(time.Duration(i) * 11 * time.Minute),
		})
	}

	newStore := func() *Store {
		s := NewStore()
		s.AddSeries(func(rec *Record) bool { return rec.Category == cache.CategoryDisposable })
		return s
	}
	single := newStore()
	pops := []*Store{newStore(), newStore(), newStore()}
	for i, in := range stream {
		single.Insert(in.rr, in.cat, in.at)
		pops[i%3].Insert(in.rr, in.cat, in.at)
		if i%17 == 0 { // duplicate sighting on another PoP, later in time
			pops[(i+1)%3].Insert(in.rr, in.cat, in.at.Add(time.Hour))
		}
	}

	merged := MergeStores(pops...)
	if merged.Len() != single.Len() {
		t.Fatalf("merged Len = %d, single = %d", merged.Len(), single.Len())
	}
	if merged.DisposableCount() != single.DisposableCount() {
		t.Fatalf("merged DisposableCount = %d, single = %d",
			merged.DisposableCount(), single.DisposableCount())
	}
	if got, want := merged.Days(), single.Days(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged Days = %+v, want %+v", got, want)
	}
	key := func(r *Record) string {
		return fmt.Sprintf("%s|%d|%s|%d|%d", r.Name, r.Type, r.RData.Format(r.Type), r.FirstSeen().Unix(), r.Category)
	}
	var a, b []string
	for _, r := range merged.Records() {
		a = append(a, key(r))
	}
	for _, r := range single.Records() {
		b = append(b, key(r))
	}
	sort.Strings(a)
	sort.Strings(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("merged record set differs from single store (%d vs %d records)", len(a), len(b))
	}
	if got, want := merged.StorageBytes(), single.StorageBytes(); got != want {
		t.Fatalf("merged StorageBytes = %d, want %d", got, want)
	}
}

// TestMergeStoresEmpty covers the degenerate inputs.
func TestMergeStoresEmpty(t *testing.T) {
	if got := MergeStores(); got.Len() != 0 {
		t.Fatalf("empty merge Len = %d", got.Len())
	}
	if got := MergeStores(nil, NewStore(), nil); got.Len() != 0 {
		t.Fatalf("nil-tolerant merge Len = %d", got.Len())
	}
}
