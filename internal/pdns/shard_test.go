package pdns

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
)

// shardTestRecords builds a deterministic observation set spanning several
// days, with duplicates mixed in so the dedup path is exercised.
func shardTestRecords() []struct {
	rr  dnsmsg.RR
	cat cache.Category
	at  time.Time
} {
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	var out []struct {
		rr  dnsmsg.RR
		cat cache.Category
		at  time.Time
	}
	for i := 0; i < 4000; i++ {
		name := fmt.Sprintf("h%d.zone%d.example.com", i%1500, i%37)
		cat := cache.CategoryOther
		if i%3 == 0 {
			cat = cache.CategoryDisposable
		}
		out = append(out, struct {
			rr  dnsmsg.RR
			cat cache.Category
			at  time.Time
		}{
			rr:  dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, TTL: 60, RData: dnsmsg.IPv4(10, 0, byte(i%200), byte(i%250))},
			cat: cat,
			at:  t0.Add(time.Duration(i) * 45 * time.Second), // spans >2 days
		})
	}
	return out
}

func newSeriesStore() *Store {
	s := NewStore()
	s.AddSeries("zone0", func(rec *Record) bool { return strings.Contains(rec.Name, ".zone0.") })
	s.AddSeries("disposable", func(rec *Record) bool { return rec.Category == cache.CategoryDisposable })
	return s
}

// sortedRecords canonicalizes a store's record set for comparison.
func sortedRecords(s *Store) []Record {
	recs := s.Records()
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = *r
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].RData.Format(out[i].Type) < out[j].RData.Format(out[j].Type)
	})
	return out
}

// TestShardedStoreSeqVsParallel: the merged read-side view must be
// identical whether the same observations are inserted from one goroutine
// or from many — sharding must not change any answer.
func TestShardedStoreSeqVsParallel(t *testing.T) {
	recs := shardTestRecords()

	seq := newSeriesStore()
	for _, r := range recs {
		seq.Insert(r.rr, r.cat, r.at)
	}

	par := newSeriesStore()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += workers {
				par.Insert(recs[i].rr, recs[i].cat, recs[i].at)
			}
		}(w)
	}
	wg.Wait()

	if seq.Len() != par.Len() {
		t.Fatalf("Len: seq %d, par %d", seq.Len(), par.Len())
	}
	if seq.DisposableCount() != par.DisposableCount() {
		t.Errorf("DisposableCount: seq %d, par %d", seq.DisposableCount(), par.DisposableCount())
	}
	if seq.StorageBytes() != par.StorageBytes() {
		t.Errorf("StorageBytes: seq %d, par %d", seq.StorageBytes(), par.StorageBytes())
	}
	seqDays, parDays := seq.Days(), par.Days()
	if !reflect.DeepEqual(seqDays, parDays) {
		t.Errorf("Days diverge:\nseq %+v\npar %+v", seqDays, parDays)
	}
	if len(seqDays) < 2 {
		t.Errorf("test workload should span multiple days, got %d", len(seqDays))
	}
	if !reflect.DeepEqual(sortedRecords(seq), sortedRecords(par)) {
		t.Error("record sets diverge between sequential and parallel insertion")
	}
	zoneOf := func(name string) (string, bool) {
		if i := strings.Index(name, ".zone"); i >= 0 {
			return name[i+1:], true
		}
		return "", false
	}
	if seqC, parC := seq.CollapseWildcards(zoneOf), par.CollapseWildcards(zoneOf); !reflect.DeepEqual(seqC, parC) {
		t.Errorf("CollapseWildcards: seq %+v, par %+v", seqC, parC)
	}
}

// TestShardedStoreConcurrentReaders drives inserts and every reader at
// once; under -race (the CI race job) this proves the striped locking
// covers the whole read surface.
func TestShardedStoreConcurrentReaders(t *testing.T) {
	recs := shardTestRecords()
	s := newSeriesStore()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for _, r := range recs {
			s.Insert(r.rr, r.cat, r.at)
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Len()
				_ = s.DisposableCount()
				_ = s.Days()
				_ = s.Records()
				_ = s.StorageBytes()
			}
		}()
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Fatal("store is empty after concurrent run")
	}
}

// TestShardSpread sanity-checks the FNV stripe pick: a realistic name
// population should land on most stripes, otherwise the striping buys no
// parallelism.
func TestShardSpread(t *testing.T) {
	s := NewStore()
	used := make(map[*shard]int)
	for i := 0; i < 2000; i++ {
		used[s.shardFor(fmt.Sprintf("host%d.zone%d.example.com", i, i%97))]++
	}
	if len(used) < numShards*3/4 {
		t.Errorf("names landed on only %d of %d shards", len(used), numShards)
	}
}
