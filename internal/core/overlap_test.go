package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/telemetry"
)

// overlapTrace is everything a streaming run reports.
type overlapTrace struct {
	windows []RescoreResult
	drifts  []DriftEvent
	explain []ExplainRecord
	ranking []ZoneRecord
}

// overlapRun drives a fresh pipeline over two days of eight windows. Each
// window's events are observed by two goroutines, one per collector shard
// (their WaitGroup is the barrier), and six hot names are noted twice in
// every window but the fourth to the seventh of a day — one more than the
// horizon the test runs under — so that names expire, are refused as
// duplicates and come back. With waitEach the run waits for every re-score
// before it feeds the next window — the serial miner; without, the feeders
// of window N+1 run beside the re-score of window N and nothing is waited
// for until the run is over.
func overlapRun(t *testing.T, clf mlearn.Classifier, seed int64, keep int, waitEach bool) overlapTrace {
	t.Helper()
	p, err := NewStreamingPipeline(clf, MinerConfig{Theta: 0.5},
		StreamingConfig{Hysteresis: 2, KeepWindows: keep, NumServers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tr overlapTrace
	p.OnDrift(func(d DriftEvent) { tr.drifts = append(tr.drifts, d) })
	p.SetExplain(func(rec ExplainRecord) { tr.explain = append(tr.explain, rec) })

	feed := func(events []obsEvent, window int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i, e := range events {
					if (i/5)%4 != window%4 || i%2 != g {
						continue
					}
					e.ob.Server = g
					if e.above {
						p.ObserveAbove(e.ob)
					} else {
						p.ObserveBelow(e.ob)
					}
				}
				for h := g; h < 6 && (window < 3 || window > 6); h += 2 {
					p.ObserveName(fmt.Appendf(nil, "hot%d.always.example.com", h))
					p.ObserveName(fmt.Appendf(nil, "hot%d.always.example.com", h))
				}
			}(g)
		}
		wg.Wait()
	}

	const windowsPerDay = 8
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for d := 0; d < 2; d++ {
		date := day.AddDate(0, 0, d)
		events := synthObservations(seed+int64(100*d), 8, 8, 15)
		var handles []*RescoreHandle
		for w := 0; w < windowsPerDay-1; w++ {
			feed(events, w)
			h, err := p.Rescore(date)
			if err != nil {
				t.Fatal(err)
			}
			if waitEach {
				if _, err := h.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			handles = append(handles, h)
		}
		feed(events, windowsPerDay-1)
		last, err := p.EndDay(date)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range handles {
			res, err := h.Wait()
			if err != nil {
				t.Fatal(err)
			}
			tr.windows = append(tr.windows, res)
		}
		tr.windows = append(tr.windows, last)
	}
	tr.ranking = p.Ranking()
	return tr
}

// TestRescoreOverlapDeterminism is the contract of the overlapped
// re-score: what a run reports does not depend on whether anybody waited
// for a window's mine before feeding the next window. Run it under -race:
// the callbacks append to plain slices, which is only sound if each
// window's calls happen before the next barrier returns.
func TestRescoreOverlapDeterminism(t *testing.T) {
	clf := trainedClassifier(t)
	for _, keep := range []int{0, 3} {
		for seed := int64(1); seed <= 10; seed++ {
			serial := overlapRun(t, clf, seed, keep, true)
			overlapped := overlapRun(t, clf, seed, keep, false)

			var findings, expired, reinserted int
			for i, w := range serial.windows {
				findings += len(w.Findings)
				expired += w.Expired
				if i%8 >= 4 {
					reinserted += w.Inserted
				}
			}
			if findings == 0 || len(serial.drifts) == 0 || len(serial.explain) == 0 || len(serial.ranking) == 0 {
				t.Fatalf("keep %d seed %d: fixture reports nothing: %d findings, %d drifts, %d explain records, %d ranked zones",
					keep, seed, findings, len(serial.drifts), len(serial.explain), len(serial.ranking))
			}
			if keep > 0 && (expired == 0 || reinserted == 0) {
				t.Fatalf("keep %d seed %d: fixture never expires and re-admits a name (%d expired, %d re-inserted)",
					keep, seed, expired, reinserted)
			}
			for i := range serial.windows {
				if !reflect.DeepEqual(serial.windows[i], overlapped.windows[i]) {
					t.Fatalf("keep %d seed %d: window %d differs\nserial:     %+v\noverlapped: %+v",
						keep, seed, i+1, serial.windows[i], overlapped.windows[i])
				}
			}
			if !reflect.DeepEqual(serial.drifts, overlapped.drifts) {
				t.Errorf("keep %d seed %d: drift sequences differ", keep, seed)
			}
			if !reflect.DeepEqual(serial.explain, overlapped.explain) {
				t.Errorf("keep %d seed %d: explain records differ", keep, seed)
			}
			if !reflect.DeepEqual(serial.ranking, overlapped.ranking) {
				t.Errorf("keep %d seed %d: rankings differ", keep, seed)
			}
		}
	}
}

// probeName returns a name whose bytes are its own heap object, and a
// channel that is closed once nothing reaches them any more.
func probeName(name string) (string, <-chan struct{}) {
	b := []byte(name)
	own := unsafe.String(&b[0], len(b))
	return own, watchName(own)
}

// watchName returns a channel that is closed once nothing reaches the bytes
// of name, which must be a heap object of their own (and more than 16 of
// them: the allocator packs smaller ones together). A name cannot tell who
// still holds it; its backing array can, through a finalizer.
func watchName(name string) <-chan struct{} {
	freed := make(chan struct{})
	runtime.SetFinalizer(unsafe.StringData(name), func(*byte) { close(freed) })
	return freed
}

// TestEndDayReleasesTheDay: after EndDay nothing of the finished day is
// reachable from the pipeline. Two probe names say so, one through each
// intake: a record's owner and the copy ObserveName made of a bare name the
// first time it was noted, which every holder of a name
// keeps alive — counts view, collector shards and their touched lists,
// touched-name buffer, stripes, entropy cache, findings kept per zone,
// scratch — and every holder of a tree handle too, because one node reaches
// the whole tree through its parent (handles left in the scratch across
// EndDay once read +80 % live heap), and every holder of a finding's zone
// across days — verdict states, snapshot, ranking — since a zone is a slice
// of the name that created its node. The checks after that say where.
func TestEndDayReleasesTheDay(t *testing.T) {
	view := reflect.TypeOf(map[string][]*chrstat.RRStat(nil))
	typ := reflect.TypeOf((*StreamingPipeline)(nil)).Elem()
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type == view {
			t.Errorf("StreamingPipeline.%s keeps a counts view: it stays reachable after Counts.Reset", f.Name)
		}
	}

	// A horizon, so that the tree lists its windows; a suffix that makes
	// bucket.s3.example.com a deep start under example.com.
	p, err := NewStreamingPipeline(trainedClassifier(t), MinerConfig{Theta: 0.5}, StreamingConfig{KeepWindows: 8},
		dnsname.NewSuffixes([]string{"com", "s3.example.com"}))
	if err != nil {
		t.Fatal(err)
	}
	date := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	events := synthObservations(5, 6, 6, 15)
	recordProbe, recordFreed := probeName("probe-of-the-records." + events[0].ob.RR.Name)
	events[0].ob.RR.Name, events[0].ob.QName = recordProbe, recordProbe
	nameProbe := []byte("probe-of-the-names.bucket.s3.example.com")
	var nameFreed <-chan struct{}
	for i, e := range events {
		if e.above {
			p.ObserveAbove(e.ob)
		} else {
			p.ObserveBelow(e.ob)
		}
		// Four windows: both buffers of every stripe get used, and the
		// first holds the record probe alone of its zone, so that the
		// zone's tree node, and the zone of its findings, slice the probe.
		if i%(len(events)/3) == 0 {
			p.ObserveName(nameProbe)
			if i == 0 { // the copy the tree will be built from
				noted := p.pending[dnsname.Hash(nameProbe)&(pendingStripeCount-1)].names
				nameFreed = watchName(noted[len(noted)-1])
			}
			for n := 0; n < 8*pendingStripeCount; n++ {
				p.ObserveName(fmt.Appendf(nil, "k%d-%d.bucket.s3.example.com", i, n))
			}
			if _, err := p.Rescore(date); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.wait()
	if len(p.found) == 0 || len(p.dirty) == 0 || cap(p.scratch.zones) == 0 || len(p.scratch.groups) == 0 {
		t.Fatalf("fixture: %d zones with findings, %d dirty, a zone stack of %d, %d groups in the scratch",
			len(p.found), len(p.dirty), cap(p.scratch.zones), len(p.scratch.groups))
	}
	if res, err := p.EndDay(date); err != nil || len(res.Findings) == 0 {
		t.Fatalf("EndDay: %d findings, %v", len(res.Findings), err)
	}
	events, recordProbe = nil, ""

	for name, freed := range map[string]<-chan struct{}{"a record's owner name": recordFreed, "a noted name": nameFreed} {
		for tries := 0; ; tries++ {
			runtime.GC()
			select {
			case <-freed:
			case <-time.After(10 * time.Millisecond):
				if tries < 300 {
					continue
				}
				t.Errorf("%s of the finished day is still reachable after EndDay", name)
			}
			break
		}
	}

	if p.inflight != nil {
		t.Error("a re-score handle survives EndDay")
	}
	if !reflect.ValueOf(&p.counts).Elem().IsZero() {
		t.Error("the counts view is not empty after EndDay")
	}
	if p.collector.Merge().NumRecords() != 0 {
		t.Error("the collector of the finished day is still the pipeline's")
	}
	if p.tree.BlackCount() != 0 || p.tree.NumStarts() != 0 || p.entropy.Len() != 0 {
		t.Errorf("%d black names, %d starts, %d cached entropies after EndDay", p.tree.BlackCount(), p.tree.NumStarts(), p.entropy.Len())
	}
	if len(p.found) != 0 {
		t.Errorf("%d zones keep their findings after EndDay", len(p.found))
	}
	if p.dirty != nil || p.scratch.zones != nil || p.scratch.groups != nil {
		t.Errorf("after EndDay the pipeline keeps a dirty list of %d, a zone stack of %d, %d scratch groups: handles into the old tree",
			cap(p.dirty), cap(p.scratch.zones), cap(p.scratch.groups))
	}
	buffers := 0
	for i := range p.pending {
		s := &p.pending[i]
		if len(s.seen) != 0 || len(s.names) != 0 || len(s.spare) != 0 {
			t.Errorf("stripe %d: %d seen, %d pending, %d spare names after EndDay", i, len(s.seen), len(s.names), len(s.spare))
		}
		for _, buf := range [][]string{s.names, s.spare} {
			if cap(buf) > 0 {
				buffers++
			}
			for _, name := range buf[:cap(buf)] {
				if name != "" {
					t.Fatalf("stripe %d: an idle intake buffer still holds %q", i, name)
				}
			}
		}
	}
	if buffers != 2*pendingStripeCount {
		t.Errorf("fixture: %d intake buffers were ever used, want both of every stripe", buffers)
	}
}

// TestObserveNameBesideBarriers: the serve path's intake needs no
// quiescence. Two goroutines note distinct names while the caller runs
// Rescore and EndDay, and every name is inserted into the tree exactly
// once, in the window that closed after it was noted. Run it under -race.
func TestObserveNameBesideBarriers(t *testing.T) {
	p, err := NewStreamingPipeline(trainedClassifier(t), MinerConfig{Theta: 0.5}, StreamingConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const perGoroutine = 4000
	var done atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer done.Add(1)
			for i := 0; i < perGoroutine; i++ {
				p.ObserveName(fmt.Appendf(nil, "n%d-g%d.zone%d.example.com", i, g, i%7))
			}
		}(g)
	}
	inserted := 0
	date := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	endDay := func() {
		res, err := p.EndDay(date)
		if err != nil {
			t.Fatal(err)
		}
		inserted += res.Inserted
	}
	for w := 0; done.Load() < 2; w++ {
		if w%4 == 3 {
			endDay()
			continue
		}
		h, err := p.Rescore(date)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		inserted += res.Inserted
	}
	wg.Wait()
	endDay() // the names noted since the last barrier
	if inserted != 2*perGoroutine {
		t.Errorf("%d names noted, %d inserted", 2*perGoroutine, inserted)
	}
}

// flakyClassifier fails on demand.
type flakyClassifier struct {
	mlearn.Classifier
	fail atomic.Bool
}

var errFlaky = errors.New("classifier down")

func (c *flakyClassifier) PredictProb(sample []float64) (float64, error) {
	if c.fail.Load() {
		return 0, errFlaky
	}
	return c.Classifier.PredictProb(sample)
}

// TestMineErrorSurfacesAtNextBarrier: a window whose mine fails after
// Rescore has returned reports the failure from its handle and, once, from
// whichever of Rescore and EndDay closes the next window.
func TestMineErrorSurfacesAtNextBarrier(t *testing.T) {
	date := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, next := range []string{"Rescore", "EndDay"} {
		clf := &flakyClassifier{Classifier: trainedClassifier(t)}
		p, err := NewStreamingPipeline(clf, MinerConfig{Theta: 0.5}, StreamingConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range synthObservations(5, 6, 6, 15) {
			p.ObserveBelow(e.ob)
		}
		clf.fail.Store(true)
		h, err := p.Rescore(date)
		if err != nil {
			t.Fatalf("%s: Rescore with nothing in flight = %v", next, err)
		}
		if _, err := h.Wait(); !errors.Is(err, errFlaky) {
			t.Fatalf("%s: Wait = %v, want the mine's error", next, err)
		}
		clf.fail.Store(false)
		if next == "Rescore" {
			h, err = p.Rescore(date)
			if h != nil {
				t.Errorf("Rescore started a window on top of a failed one")
			}
		} else {
			_, err = p.EndDay(date)
		}
		if !errors.Is(err, errFlaky) {
			t.Fatalf("%s after a failed window = %v, want that window's error", next, err)
		}
		if got := p.Windows(); got != 0 {
			t.Errorf("%s: %d windows completed, want 0", next, got)
		}
		if _, err := p.EndDay(date); err != nil {
			t.Errorf("%s: the error was reported twice: %v", next, err)
		}
	}
}

// TestRescoreLagMetrics: with a registry the pipeline times every mine and
// every barrier that found one to wait for.
func TestRescoreLagMetrics(t *testing.T) {
	p, err := NewStreamingPipeline(trainedClassifier(t), MinerConfig{Theta: 0.5}, StreamingConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.SetMetrics(reg)
	date := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, e := range synthObservations(5, 6, 6, 15) {
		p.ObserveBelow(e.ob)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Rescore(date); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.EndDay(date); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["streaming_rescore_ns"]; h.Count != 3 || h.Sum == 0 {
		t.Errorf("streaming_rescore_ns: %d mines timed, %d ns in all; want 3 and some", h.Count, h.Sum)
	}
	// The first Rescore had nothing to join; the second and EndDay did.
	if h := snap.Histograms["streaming_rescore_wait_ns"]; h.Count != 2 {
		t.Errorf("streaming_rescore_wait_ns: %d joins timed, want 2", h.Count)
	}
}
