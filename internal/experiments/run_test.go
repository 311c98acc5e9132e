package experiments

import (
	"reflect"
	"sync"
	"testing"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/workload"
)

// TestRunSimulatesEachDatasetOnce fans every experiment that reads a
// shared dataset out over goroutines of its own, as dnsnoise-exp -id all
// -parallel does, and counts the days they simulate: every simulated day
// stamps the query log once. The run builds the reference day, the
// bootstrap, the growth study and the February day once each, and the five
// growth-study ids and the two Figure 3 ids read one result apiece.
func TestRunSimulatesEachDatasetOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the growth study and a two-day bootstrap")
	}
	log := qlog.New(qlog.Config{Sample: 1 << 30})
	var stamps lastEvent
	log.AddSink(&stamps)
	scale := tinyScale()
	scale.QueryLog = log
	r := NewRun(scale, 2)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		growth = map[*GrowthResult]int{}
		fig3   = map[*Fig3Result]int{}
	)
	readers := []func() error{
		func() error { _, err := r.Fig5NewRRs(); return err },
		func() error { _, err := r.Fig15PDNSGrowth(); return err },
		func() error { _, err := r.Fig7LabeledCHR(); return err },
		func() error { _, err := r.Fig12ROC(); return err },
		func() error { _, err := r.FeatureAblation(); return err },
		func() error { _, err := r.RenewalModel(); return err },
		func() error { _, err := r.Baseline(); return err },
		func() error { _, err := r.ClientCardinality(); return err },
		func() error { _, err := r.CacheMitigation(0.3); return err },
	}
	for range 5 { // fig11, fig13, fig14, table1, table2
		readers = append(readers, func() error {
			res, err := r.GrowthStudy()
			mu.Lock()
			growth[res]++
			mu.Unlock()
			return err
		})
	}
	for range 2 { // fig3a, fig3b
		readers = append(readers, func() error {
			res, err := r.Fig3LongTail()
			mu.Lock()
			fig3[res]++
			mu.Unlock()
			return err
		})
	}
	errs := make([]error, len(readers))
	for i, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = read()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	// The reference day 1, the bootstrap 2, the growth study 7 (its
	// training day and six dates), the February day 1, and the two days
	// the mitigation replays on caches of its own.
	log.EmitNow(qlog.Event{})
	if got := stamps.ev.Window; got != 13 {
		t.Errorf("readers simulated %d days, want 13", got)
	}
	if len(growth) != 1 || len(fig3) != 1 {
		t.Errorf("growth-study ids read %d results, Figure 3 ids %d; want one each", len(growth), len(fig3))
	}
}

// TestSharedDatasetsMatchOwnRuns holds the run's datasets, at sim.Small(),
// to what a reader would simulate alone. The bootstrap's oracle is one
// RunDay a day on a fresh world with the store tapped: the store's days
// and size and the final day's mined zones must be the same. The
// reference day must hold, name by name, what a fresh world's first
// December day holds.
func TestSharedDatasetsMatchOwnRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 13-day bootstrap twice at the small scale")
	}
	const days = 13
	scale := sim.Small()
	r := NewRun(scale, days)
	// The run builds its datasets beside the oracles below; the readers
	// further down wait for them.
	go r.bootstrap()
	go r.refDay()

	env, err := sim.NewEnv(scale)
	if err != nil {
		t.Fatal(err)
	}
	store := pdns.NewStore()
	store.AddSeries(func(rec *pdns.Record) bool { return AkamaiNames(rec.Name) })
	store.AddSeries(func(rec *pdns.Record) bool { return GoogleNames(rec.Name) })
	var last *chrstat.Collector
	for d := 0; d < days; d++ {
		p := workload.DecemberProfile(dateAt(d))
		p.MeasurementBoost *= 1 + 0.35*float64(d)/float64(max(days-1, 1))
		if last, err = env.RunDay(p, ingest.WithSinks(ingest.TapSink(store.Tap(), nil))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := trainAndMine(env, last.ByName())
	if err != nil {
		t.Fatal(err)
	}

	b, err := r.bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.store.Days(), store.Days(); !reflect.DeepEqual(got, want) {
		t.Errorf("bootstrap days differ:\nshared: %+v\nown:    %+v", got, want)
	}
	if got, want := b.store.Len(), store.Len(); got != want {
		t.Errorf("bootstrap store holds %d RRs, own run %d", got, want)
	}
	got, err := trainAndMine(b.env, b.last.ByName())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("final day mines %d findings, own run %d, or they differ", len(got), len(want))
	}

	fresh, err := sim.NewEnv(scale)
	if err != nil {
		t.Fatal(err)
	}
	own, err := fresh.RunDay(workload.DecemberProfile(dateAt(0)))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.refDay()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := nameSums(d.byName), nameSums(own.ByName()); !reflect.DeepEqual(got, want) {
		t.Errorf("reference day holds %d names, a fresh day %d, or their sums differ", len(got), len(want))
	}
}

// lastEvent keeps the last event a query log delivers.
type lastEvent struct{ ev qlog.Event }

func (s *lastEvent) Consume(evs []qlog.Event) error {
	s.ev = evs[len(evs)-1]
	return nil
}

func (s *lastEvent) Flush() error { return nil }

// nameSums totals each name's records: how many, and their below and above
// observations.
func nameSums(byName map[string][]*chrstat.RRStat) map[string][3]uint64 {
	out := make(map[string][3]uint64, len(byName))
	for name, recs := range byName {
		var s [3]uint64
		for _, st := range recs {
			s[0]++
			s[1] += st.Below
			s[2] += st.Above
		}
		out[name] = s
	}
	return out
}
