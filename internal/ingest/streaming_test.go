package ingest

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/workload"
)

// streamFixture trains one classifier on a fresh day-1 run and computes
// the batch reference: per-day findings over the full profile sequence.
type streamFixture struct {
	clf      *mlearn.DecisionTree
	mcfg     core.MinerConfig
	profiles []workload.Profile
	days     [][]core.Finding
}

func newStreamFixture(t *testing.T, nDays int) *streamFixture {
	t.Helper()
	fx := &streamFixture{
		mcfg:     core.MinerConfig{Theta: 0.9},
		profiles: testProfiles(nDays),
	}
	trainEnv := newTestEnv(t)
	tw := runWindows(t, trainEnv.cluster(t), NewGeneratorSource(trainEnv.gen, fx.profiles[0]))
	byName := tw[0].Collector.ByName()
	tree := core.BuildTree(byName, nil)
	examples := core.BuildTrainingSet(tree, byName, trainEnv.reg.TrainingLabels(401), core.TrainingConfig{})
	clf, err := core.TrainClassifier(examples, core.TrainingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fx.clf = clf

	miner, err := core.NewMiner(clf, fx.mcfg)
	if err != nil {
		t.Fatal(err)
	}
	env := newTestEnv(t)
	runner := NewRunner(env.cluster(t), OnWindow(func(w Window) error {
		byName := w.Collector.ByName()
		findings, err := miner.Mine(core.BuildTree(byName, nil), byName)
		fx.days = append(fx.days, findings)
		return err
	}))
	if err := runner.Run(NewGeneratorSource(env.gen, fx.profiles...)); err != nil {
		t.Fatal(err)
	}
	mined := 0
	for _, d := range fx.days {
		mined += len(d)
	}
	if mined == 0 {
		t.Fatal("batch reference mined nothing; scale too small to compare")
	}
	return fx
}

// TestStreamingMatchesBatchAtDayBoundaries is the tentpole equivalence
// test at the ingest layer: the same generated stream driven through a
// StreamingPipeline — intake via the sink seam, re-scores every six
// simulated hours, EndDay at each rotation — must reproduce the batch
// miner's day-boundary verdicts exactly, sequentially and in parallel
// (run under -race in CI).
func TestStreamingMatchesBatchAtDayBoundaries(t *testing.T) {
	fx := newStreamFixture(t, 2)
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			sp, err := core.NewStreamingPipeline(fx.clf, fx.mcfg,
				core.StreamingConfig{Hysteresis: 1, NumServers: 3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var streamDays [][]core.Finding
			opts := []Option{
				WithSinks(sp),
				WithWindowTicks(6*time.Hour, func(tk Tick) error {
					_, err := sp.Rescore(tk.Day)
					return err
				}),
				OnWindow(func(w Window) error {
					res, err := sp.EndDay(w.Date)
					streamDays = append(streamDays, res.Findings)
					return err
				}),
			}
			if parallel {
				opts = append(opts, WithParallel())
			}
			env := newTestEnv(t)
			if err := NewRunner(env.cluster(t), opts...).
				Run(NewGeneratorSource(env.gen, fx.profiles...)); err != nil {
				t.Fatal(err)
			}
			if len(streamDays) != len(fx.days) {
				t.Fatalf("streamed %d day windows, batch %d", len(streamDays), len(fx.days))
			}
			for i := range fx.days {
				if !reflect.DeepEqual(streamDays[i], fx.days[i]) {
					t.Errorf("day %d verdicts diverge:\nstream: %+v\nbatch:  %+v",
						i, streamDays[i], fx.days[i])
				}
			}
			// Intra-day ticks fired: more re-scores than day boundaries.
			if sp.Windows() <= uint32(len(fx.profiles)) {
				t.Errorf("only %d re-scores over %d days; intra-day ticks never fired",
					sp.Windows(), len(fx.profiles))
			}
		})
	}
}

// TestStreamingHooksMatchBatch exercises the packaged option bundle: a
// parallel run wired through StreamingHooks ends, at hysteresis 1, holding
// exactly the (zone, depth) pairs the batch miner found on the last day.
func TestStreamingHooksMatchBatch(t *testing.T) {
	fx := newStreamFixture(t, 2)
	sp, err := core.NewStreamingPipeline(fx.clf, fx.mcfg,
		core.StreamingConfig{Hysteresis: 1, NumServers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := append(StreamingHooks(sp, 8*time.Hour), WithParallel())
	env := newTestEnv(t)
	if err := NewRunner(env.cluster(t), opts...).
		Run(NewGeneratorSource(env.gen, fx.profiles...)); err != nil {
		t.Fatal(err)
	}
	var want []core.ZoneDepth
	for _, f := range fx.days[len(fx.days)-1] {
		want = append(want, core.ZoneDepth{Zone: f.Zone, Depth: f.Depth})
	}
	slices.SortFunc(want, func(a, b core.ZoneDepth) int {
		return cmp.Or(cmp.Compare(a.Zone, b.Zone), cmp.Compare(a.Depth, b.Depth))
	})
	if got := sp.CurrentDisposable(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("StreamingHooks verdicts diverge from the batch's last day:\nstream: %+v\nbatch:  %+v",
			got, want)
	}
	if sp.Windows() <= uint32(len(fx.profiles)) {
		t.Errorf("only %d re-scores over %d days; ticks never fired",
			sp.Windows(), len(fx.profiles))
	}
}

// TestWindowTicksCadence pins the tick arithmetic on a hand-built stream:
// boundaries fire once per elapsed interval, stamped with the day they
// belong to, and reset at rotation.
func TestWindowTicksCadence(t *testing.T) {
	day1 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	day2 := day1.AddDate(0, 0, 1)
	at := func(base time.Time, d time.Duration, name string) timedQuery {
		return timedQuery{t: base.Add(d), name: name}
	}
	stream := []timedQuery{
		at(day1, 1*time.Hour, "a"),
		at(day1, 7*time.Hour, "b"),  // crosses 06:00
		at(day1, 23*time.Hour, "c"), // crosses 12:00 and 18:00 (catch-up)
		at(day2, 2*time.Hour, "d"),  // day rotation resets the anchor
		at(day2, 6*time.Hour, "e"),  // exactly on the boundary: tick first
	}
	want := []struct {
		day  time.Time
		hour int
		qs   int
	}{
		{day1, 6, 1},  // before "b"
		{day1, 12, 2}, // before "c"
		{day1, 18, 2}, // catch-up, same query count
		{day2, 6, 1},  // before "e"
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			src := &sliceSource{}
			for _, q := range stream {
				src.qs = append(src.qs, resolver.Query{Time: q.t, Name: q.name + ".tick.example"})
			}
			var got []Tick
			env := newTestEnv(t)
			err := NewRunner(env.cluster(t), append(m.opts,
				WithWindowTicks(6*time.Hour, func(tk Tick) error {
					got = append(got, tk)
					return nil
				}),
			)...).Run(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("fired %d ticks, want %d: %+v", len(got), len(want), got)
			}
			for i, w := range want {
				tk := got[i]
				if !tk.Day.Equal(w.day) || !tk.Time.Equal(w.day.Add(time.Duration(w.hour)*time.Hour)) || tk.Queries != w.qs {
					t.Errorf("tick %d = {day %s time %s queries %d}, want {day %s hour %d queries %d}",
						i, tk.Day, tk.Time, tk.Queries, w.day, w.hour, w.qs)
				}
			}
		})
	}
}

type timedQuery struct {
	t    time.Time
	name string
}
