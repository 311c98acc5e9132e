package ingest

import (
	"testing"

	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
)

// TestRunnerStampsQlogDays drives two generated days through the runner
// with an attached query log and checks every sampled event carries its
// day's stamp and window ordinal — the join key against per-day windows.
func TestRunnerStampsQlogDays(t *testing.T) {
	env := newTestEnv(t)
	auth, err := env.reg.BuildAuthority(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := qlog.New(qlog.Config{Sample: 16})
	mem := qlog.NewMemorySink(1 << 14)
	l.AddSink(mem)
	cluster, err := resolver.NewCluster(auth,
		resolver.WithServers(2), resolver.WithCacheSize(1<<12),
		resolver.WithQueryLog(l))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cluster, WithQueryLog(l), WithSingleWindow())
	if err := r.Run(NewGeneratorSource(env.gen, testProfiles(2)...)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := mem.Snapshot(qlog.Filter{})
	if len(evs) == 0 {
		t.Fatal("no events sampled over two days")
	}
	byDay := map[string]uint32{}
	for _, ev := range evs {
		if ev.Day == "" || ev.Window == 0 {
			t.Fatalf("event %d missing day/window stamp: %+v", ev.ID, ev)
		}
		if prev, ok := byDay[ev.Day]; ok && prev != ev.Window {
			t.Fatalf("day %s stamped with windows %d and %d", ev.Day, prev, ev.Window)
		}
		byDay[ev.Day] = ev.Window
	}
	if byDay["2011-12-01"] != 1 || byDay["2011-12-02"] != 2 {
		t.Errorf("day->window map = %v, want 2011-12-01:1 2011-12-02:2", byDay)
	}
}

// TestRunnerFlushesQlogAtDayEnd checks the day barrier drains the
// cluster's recorders: after Run returns, the sink already holds the
// events without any explicit Flush.
func TestRunnerFlushesQlogAtDayEnd(t *testing.T) {
	env := newTestEnv(t)
	auth, err := env.reg.BuildAuthority(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := qlog.New(qlog.Config{Sample: 16})
	mem := qlog.NewMemorySink(1 << 14)
	l.AddSink(mem)
	cluster, err := resolver.NewCluster(auth,
		resolver.WithServers(2), resolver.WithCacheSize(1<<12),
		resolver.WithQueryLog(l))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cluster, WithQueryLog(l), WithSingleWindow())
	if err := r.Run(NewGeneratorSource(env.gen, testProfiles(1)...)); err != nil {
		t.Fatal(err)
	}
	// A final Flush must find every ring already empty: the day-end
	// FlushQueryLog delivered whatever had not filled a ring.
	n := mem.Total()
	if n == 0 {
		t.Error("day barrier did not drain the recorders")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if left := mem.Total() - n; left != 0 {
		t.Errorf("day barrier left %d events in the recorders", left)
	}
}
