package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsnoise/internal/chrstat"
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
// (their WaitGroup is the barrier), and every window also re-observes six
// hot names, so that under a sliding horizon names expire, are refused as
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
				for h := g; h < 6; h += 2 {
					p.ObserveName(fmt.Sprintf("hot%d.always.example.com", h))
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

// TestEndDayReleasesTheDay: after EndDay nothing of the finished day is
// reachable from the pipeline — not through the counts view (which is
// passed to the mine, never stored: a stored view outlived Counts.Reset and
// cost 5.7 % of the benchmark's live heap), not through an idle intake
// buffer's backing array.
func TestEndDayReleasesTheDay(t *testing.T) {
	view := reflect.TypeOf(map[string][]*chrstat.RRStat(nil))
	typ := reflect.TypeOf((*StreamingPipeline)(nil)).Elem()
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type == view {
			t.Errorf("StreamingPipeline.%s keeps a counts view: it stays reachable after Counts.Reset", f.Name)
		}
	}

	p, err := NewStreamingPipeline(trainedClassifier(t), MinerConfig{Theta: 0.5}, StreamingConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	date := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	events := synthObservations(5, 6, 6, 15)
	for i, e := range events {
		if e.above {
			p.ObserveAbove(e.ob)
		} else {
			p.ObserveBelow(e.ob)
		}
		if i == len(events)/3 || i == 2*len(events)/3 {
			if _, err := p.Rescore(date); err != nil { // both buffers of a stripe get used
				t.Fatal(err)
			}
		}
	}
	if _, err := p.EndDay(date); err != nil {
		t.Fatal(err)
	}

	if p.inflight != nil {
		t.Error("a re-score handle survives EndDay")
	}
	if !reflect.ValueOf(&p.counts).Elem().IsZero() {
		t.Error("the counts view is not empty after EndDay")
	}
	if p.tree.BlackCount() != 0 || p.entropy.Len() != 0 {
		t.Errorf("%d black names, %d cached entropies after EndDay", p.tree.BlackCount(), p.entropy.Len())
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
	if buffers <= pendingStripeCount {
		t.Errorf("fixture: only %d intake buffers were ever used, want both of some stripe", buffers)
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
