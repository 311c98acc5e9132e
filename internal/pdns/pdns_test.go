package pdns

import (
	"fmt"
	"maps"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/slab"
)

var day1 = time.Date(2011, 11, 28, 10, 0, 0, 0, time.UTC)

func rrA(name, ip string) dnsmsg.RR {
	return dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.MustRData(dnsmsg.TypeA, ip)}
}

func TestInsertDeduplicates(t *testing.T) {
	s := NewStore()
	rr := rrA("www.example.com", "192.0.2.1")
	s.Insert(rr, cache.CategoryOther, day1)
	s.Insert(rr, cache.CategoryOther, day1.Add(time.Hour))
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	// Different rdata is a different record.
	s.Insert(rrA("www.example.com", "192.0.2.2"), cache.CategoryOther, day1)
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	// TTL is not part of the identity.
	rr2 := rr
	rr2.TTL = 60
	s.Insert(rr2, cache.CategoryOther, day1)
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2 (TTL excluded from key)", s.Len())
	}
}

func TestFirstSeenWins(t *testing.T) {
	s := NewStore()
	rr := rrA("www.example.com", "192.0.2.1")
	s.Insert(rr, cache.CategoryOther, day1)
	s.Insert(rr, cache.CategoryOther, day1.AddDate(0, 0, 3))
	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if !recs[0].FirstSeen().Equal(day1) {
		t.Errorf("FirstSeen = %v, want %v", recs[0].FirstSeen(), day1)
	}
}

func TestDayCounts(t *testing.T) {
	s := NewStore()
	s.AddSeries(func(r *Record) bool { // google
		return strings.HasSuffix(r.Name, ".google.com")
	})
	s.Insert(rrA("www.google.com", "192.0.2.1"), cache.CategoryOther, day1)
	s.Insert(rrA("x.other.com", "192.0.2.2"), cache.CategoryOther, day1)
	s.Insert(rrA("tok1.d.test", "127.0.0.1"), cache.CategoryDisposable, day1)
	day2 := day1.AddDate(0, 0, 1)
	s.Insert(rrA("tok2.d.test", "127.0.0.2"), cache.CategoryDisposable, day2)
	// Duplicate on day 2 of a day-1 record must not count as new.
	s.Insert(rrA("www.google.com", "192.0.2.1"), cache.CategoryOther, day2)

	days := s.Days()
	if len(days) != 2 {
		t.Fatalf("days = %d, want 2", len(days))
	}
	if days[0].New != 3 || days[0].Disposable != 1 {
		t.Errorf("day1 = %+v", days[0])
	}
	if days[1].New != 1 || days[1].Disposable != 1 {
		t.Errorf("day2 = %+v", days[1])
	}
	if days[0].PerSeries[0] != 1 || days[1].PerSeries[0] != 0 {
		t.Errorf("google series = %d, %d", days[0].PerSeries[0], days[1].PerSeries[0])
	}
}

func TestTapFiltersFailures(t *testing.T) {
	s := NewStore()
	tap := s.Tap()
	tap.Observe(resolver.Observation{Time: day1, QName: "x.test", RCode: dnsmsg.RCodeNXDomain})
	tap.Observe(resolver.Observation{Time: day1, QName: "y.test", RR: rrA("y.test", "192.0.2.1"), RCode: dnsmsg.RCodeNoError})
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 (NXDOMAIN excluded)", s.Len())
	}
}

func TestDisposableCountAndStorage(t *testing.T) {
	s := NewStore()
	s.Insert(rrA("a.d.test", "127.0.0.1"), cache.CategoryDisposable, day1)
	s.Insert(rrA("www.ok.test", "192.0.2.1"), cache.CategoryOther, day1)
	if got := s.DisposableCount(); got != 1 {
		t.Errorf("DisposableCount = %d, want 1", got)
	}
	want := uint64(len("a.d.test")+len("127.0.0.1")+24) + uint64(len("www.ok.test")+len("192.0.2.1")+24)
	if got := s.StorageBytes(); got != want {
		t.Errorf("StorageBytes = %d, want %d", got, want)
	}
}

func TestCollapseWildcards(t *testing.T) {
	s := NewStore()
	// 1000 disposable records under one zone, 10 ordinary records.
	for i := 0; i < 1000; i++ {
		s.Insert(rrA(fmt.Sprintf("tok%d.dns.xx.fbcdn.test", i), "192.0.2.7"), cache.CategoryDisposable, day1)
	}
	for i := 0; i < 10; i++ {
		s.Insert(rrA(fmt.Sprintf("h%d.ok.test", i), "192.0.2.1"), cache.CategoryOther, day1)
	}
	zoneOf := func(name string) (string, bool) {
		if strings.HasSuffix(name, ".dns.xx.fbcdn.test") {
			return "dns.xx.fbcdn.test", true
		}
		return "", false
	}
	res := s.CollapseWildcards(zoneOf)
	if res.Before != 1010 {
		t.Errorf("Before = %d", res.Before)
	}
	if res.After != 11 {
		t.Errorf("After = %d, want 11 (10 kept + 1 wildcard)", res.After)
	}
	if res.Collapsed != 1000 || res.Wildcards != 1 {
		t.Errorf("Collapsed = %d Wildcards = %d", res.Collapsed, res.Wildcards)
	}
	if res.BytesAfter >= s.StorageBytes() {
		t.Errorf("BytesAfter = %d should be far below %d", res.BytesAfter, s.StorageBytes())
	}
	// The store itself is untouched by the simulation of the mitigation.
	if s.Len() != 1010 {
		t.Errorf("store mutated: Len = %d", s.Len())
	}
}

func TestCollapseEmptyStore(t *testing.T) {
	s := NewStore()
	res := s.CollapseWildcards(func(string) (string, bool) { return "", false })
	if res.Before != 0 || res.After != 0 {
		t.Errorf("empty collapse = %+v", res)
	}
}

func TestDisposableRatio(t *testing.T) {
	r := CollapseResult{Collapsed: 1000, Wildcards: 7}
	if got := r.DisposableRatio(); got != 0.007 {
		t.Errorf("DisposableRatio = %v, want 0.007", got)
	}
	var zero CollapseResult
	if zero.DisposableRatio() != 0 {
		t.Error("zero collapse DisposableRatio should be 0")
	}
}

// TestRecordSizeClass: a stored record is 56 bytes, 146 to its stripe's slab
// chunk. The store holds one record per distinct RR for the whole run, so
// the record's size is the store's. It went 80 → 64 when the first sighting
// became Unix nanoseconds instead of a time.Time, whose location pointer and
// wall-and-monotonic pair took 24 bytes to say what 8 do, and 64 → 56 when
// the link to the name's next record became that record's number in the
// stripe's chunks (4 bytes) instead of a pointer (8): the link, the type and
// the category share the last word.
func TestRecordSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 56 {
		t.Errorf("unsafe.Sizeof(pdns.Record{}) = %d, want 56", got)
	}
	if got := slab.PerChunk[Record](); got != 146 {
		t.Errorf("a slab chunk holds %d records, want 146", got)
	}
}

// TestInsertAllocs: a duplicate insert allocates nothing, and a new record
// costs its share of its stripe's slab chunk, not an object of its own.
// Measured beyond an empty store and the growth of its stripes' indexes,
// which a store whose indexes file the same names alone measures: at 625
// names a stripe, each doubling of a stripe's table is an allocation.
func TestInsertAllocs(t *testing.T) {
	const records = 20000
	rrs := make([]dnsmsg.RR, records)
	for i := range rrs {
		rrs[i] = rrA(fmt.Sprintf("tok%d.avqs.example.com", i), "127.0.3.17")
	}
	var s *Store
	stored := testing.AllocsPerRun(3, func() {
		s = NewStore()
		for _, rr := range rrs {
			s.Insert(rr, cache.CategoryDisposable, day1)
		}
	})
	index := testing.AllocsPerRun(3, func() {
		ix := NewStore()
		for i, rr := range rrs {
			sh, fp := ix.shardFor(rr.Name)
			sh.index.Insert(fp, int32(i))
		}
	})
	fresh := (stored - index) / records
	dup := testing.AllocsPerRun(5, func() {
		for _, rr := range rrs {
			s.Insert(rr, cache.CategoryDisposable, day1.Add(time.Hour))
		}
	})
	if s.Len() != records {
		t.Fatalf("Len = %d, want %d", s.Len(), records)
	}
	t.Logf("duplicate: %.0f allocs per %d inserts; new record: %.4f allocs each beyond the index's %.4f",
		dup, records, fresh, index/records)
	if dup != 0 {
		t.Errorf("%d duplicate inserts allocated %.0f times, want 0", records, dup)
	}
	if fresh > 0.02 {
		t.Errorf("a new record cost %.4f allocations beyond the index, budget 0.02", fresh)
	}
}

// collidingNames share their FNV-1a hash's top 32 bits and its low five:
// one stripe, one fingerprint. Found by search over c<i>.fp.example.com.
var collidingNames = [2]string{"c460819.fp.example.com", "c676652.fp.example.com"}

// TestFingerprintCollision: two names that land in one stripe under one
// fingerprint stay two names, each with its own records, when inserted,
// inserted again and merged: the index finds a name by its fingerprint and
// then compares it.
func TestFingerprintCollision(t *testing.T) {
	s := NewStore()
	sh0, fp0 := s.shardFor(collidingNames[0])
	sh1, fp1 := s.shardFor(collidingNames[1])
	if sh0 != sh1 || fp0 != fp1 {
		t.Fatalf("%v do not share a stripe and a fingerprint", collidingNames)
	}
	want := make(map[string]time.Time)
	for i, name := range collidingNames {
		at := day1.Add(time.Duration(i) * time.Hour)
		for _, ip := range []string{"127.0.3.17", "127.0.3.18"} {
			s.Insert(rrA(name, ip), cache.CategoryDisposable, at)
			want[name+" "+ip] = at
		}
	}
	for _, name := range collidingNames {
		s.Insert(rrA(name, "127.0.3.17"), cache.CategoryDisposable, day1.Add(time.Minute))
	}
	check := func(what string, s *Store) {
		t.Helper()
		got := make(map[string]time.Time)
		for _, rec := range s.Records() {
			got[rec.Name+" "+rec.RData.Format(rec.Type)] = rec.FirstSeen()
		}
		if s.Len() != len(want) || !maps.Equal(got, want) {
			t.Errorf("%s holds %d records %v, want %v", what, s.Len(), got, want)
		}
	}
	check("the store", s)
	a, b := NewStore(), NewStore()
	for i, name := range collidingNames {
		at := day1.Add(time.Duration(i) * time.Hour)
		for _, ip := range []string{"127.0.3.17", "127.0.3.18"} {
			a.Insert(rrA(name, ip), cache.CategoryDisposable, at)
			b.Insert(rrA(collidingNames[1-i], ip), cache.CategoryDisposable, at.Add(3*time.Hour))
		}
	}
	check("the merge of two stores", MergeStores(a, b))
}

// TestStoreHeap: a stored record costs 67.5 bytes of live heap, read after a
// collection over 200 000 records of 150 000 names, the names' own bytes not
// counted: the record (56 bytes, 146 to a chunk) and its share of its
// stripe's index, a bucket of 8 bytes for a name's first record, the table
// between three eighths and three quarters full (here 57 %). The stripes'
// Go maps of *Record the index replaced held each name's string header
// beside the pointer, and with the 64-byte record the store took 100.1
// bytes a record. The budget is the reading and 7 %.
func TestStoreHeap(t *testing.T) {
	const names, records = 150_000, 200_000
	rrs := make([]dnsmsg.RR, 0, records)
	for i := range names {
		name := fmt.Sprintf("h%d.zone%d.example.com", i, i%997)
		rrs = append(rrs, rrA(name, "127.0.3.17"))
		if i%3 == 0 {
			rrs = append(rrs, rrA(name, "127.0.3.18"))
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore()
	for _, rr := range rrs {
		s.Insert(rr, cache.CategoryOther, day1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	runtime.KeepAlive(rrs)
	if s.Len() != len(rrs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(rrs))
	}
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(rrs))
	t.Logf("%.1f bytes of live heap a record (%d records of %d names)", perRecord, len(rrs), names)
	if perRecord > 72 {
		t.Errorf("a stored record holds %.1f bytes of live heap, budget 72", perRecord)
	}
}

// BenchmarkInsert: a new record, and a duplicate of one the store holds.
func BenchmarkInsert(b *testing.B) {
	rrs := make([]dnsmsg.RR, 1<<16)
	for i := range rrs {
		rrs[i] = rrA(fmt.Sprintf("tok%d.avqs.example.com", i), "127.0.3.17")
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		s := NewStore()
		for i := 0; i < b.N; i++ {
			if i%len(rrs) == 0 {
				b.StopTimer()
				s = NewStore()
				b.StartTimer()
			}
			s.Insert(rrs[i%len(rrs)], cache.CategoryDisposable, day1)
		}
	})
	b.Run("duplicate", func(b *testing.B) {
		s := NewStore()
		for _, rr := range rrs {
			s.Insert(rr, cache.CategoryDisposable, day1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Insert(rrs[i%len(rrs)], cache.CategoryDisposable, day1)
		}
	})
}
