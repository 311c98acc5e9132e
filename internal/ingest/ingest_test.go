package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/traceio"
	"dnsnoise/internal/workload"
)

// Compile-time checks that the pipeline's real producers and consumers
// satisfy the seam interfaces.
var (
	_ QuerySource     = (*GeneratorSource)(nil)
	_ QuerySource     = (*TraceSource)(nil)
	_ QuerySink       = (*traceio.Writer)(nil)
	_ ObservationSink = (*chrstat.Collector)(nil)
	_ ObservationSink = (*chrstat.ShardedCollector)(nil)
)

// testScale mirrors the experiments package's small scale, shrunk further
// so multi-run equivalence tests stay fast.
type testEnv struct {
	reg *workload.Registry
	gen *workload.Generator
}

func newTestEnv(t testing.TB) *testEnv {
	t.Helper()
	reg := workload.NewRegistry(workload.RegistryConfig{
		Seed:               1,
		NonDisposableZones: 60,
		DisposableZones:    20,
		HostsPerZoneMax:    16,
	})
	gen := workload.NewGenerator(reg, workload.GeneratorConfig{
		Seed:             3,
		Clients:          200,
		BaseEventsPerDay: 6000,
	})
	return &testEnv{reg: reg, gen: gen}
}

func (e *testEnv) cluster(t testing.TB) *resolver.Cluster {
	t.Helper()
	auth, err := e.reg.BuildAuthority(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := resolver.NewCluster(auth,
		resolver.WithServers(3), resolver.WithCacheSize(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testProfiles(days int) []workload.Profile {
	base := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	out := make([]workload.Profile, 0, days)
	for d := 0; d < days; d++ {
		out = append(out, workload.DecemberProfile(base.AddDate(0, 0, d)))
	}
	return out
}

// drain pulls a source dry.
func drain(t *testing.T, src QuerySource) []resolver.Query {
	t.Helper()
	var out []resolver.Query
	for {
		q, err := src.Next()
		if err == ErrPause {
			continue
		}
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q)
	}
}

// TestGeneratorSourceMatchesGenerateDay pins the source to the generator's
// days walked by hand, one DayStream per profile: same seeds, same
// profiles, identical query sequence.
func TestGeneratorSourceMatchesGenerateDay(t *testing.T) {
	profiles := testProfiles(2)

	var walked []resolver.Query
	hand := newTestEnv(t)
	for _, p := range profiles {
		day := hand.gen.StartDay(p)
		for q, ok := day.Next(); ok; q, ok = day.Next() {
			walked = append(walked, q)
		}
	}

	src := newTestEnv(t)
	pulled := drain(t, NewGeneratorSource(src.gen, profiles...))

	if len(walked) != len(pulled) {
		t.Fatalf("source drew %d queries, the days by hand %d", len(pulled), len(walked))
	}
	if !reflect.DeepEqual(walked, pulled) {
		t.Error("source stream diverges from the days' DayStreams")
	}
}

// sliceSource yields a fixed query slice; for hand-built and error-path
// streams.
type sliceSource struct {
	qs []resolver.Query
	i  int
}

func (s *sliceSource) Next() (resolver.Query, error) {
	if s.i >= len(s.qs) {
		return resolver.Query{}, io.EOF
	}
	q := s.qs[s.i]
	s.i++
	return q, nil
}

func (s *sliceSource) Close() error { return nil }

// modes are the runner's two ways to resolve: the same body drives both.
var modes = []struct {
	name string
	opts []Option
}{
	{"sequential", nil},
	{"parallel", []Option{WithParallel()}},
}

// runWindows drives src through a runner and returns the emitted windows.
func runWindows(t *testing.T, c *resolver.Cluster, src QuerySource, opts ...Option) []Window {
	t.Helper()
	var windows []Window
	opts = append(opts, OnWindow(func(w Window) error {
		windows = append(windows, w)
		return nil
	}))
	if err := NewRunner(c, opts...).Run(src); err != nil {
		t.Fatal(err)
	}
	return windows
}

// TestRunnerRotationMatchesManualDays compares the rotating runner against
// the pre-ingest idiom — one collector per day, taps reinstalled between
// days, caches persisting — and requires deep equality per window.
func TestRunnerRotationMatchesManualDays(t *testing.T) {
	profiles := testProfiles(3)

	manual := newTestEnv(t)
	mc := manual.cluster(t)
	var want []*chrstat.Collector
	for _, p := range profiles {
		col := chrstat.NewCollector()
		mc.SetTaps(resolver.TapFunc(col.ObserveBelow), resolver.TapFunc(col.ObserveAbove))
		day := manual.gen.StartDay(p)
		for q, ok := day.Next(); ok; q, ok = day.Next() {
			if _, err := mc.Resolve(q); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, col)
	}

	env := newTestEnv(t)
	windows := runWindows(t, env.cluster(t), NewGeneratorSource(env.gen, profiles...))

	if len(windows) != len(profiles) {
		t.Fatalf("got %d windows, want %d", len(windows), len(profiles))
	}
	for i, w := range windows {
		if !w.Date.Equal(profiles[i].Date) {
			t.Errorf("window %d date = %s, want %s", i, w.Date, profiles[i].Date)
		}
		if w.Queries == 0 {
			t.Errorf("window %d resolved no queries", i)
		}
		if !reflect.DeepEqual(w.Collector, want[i]) {
			t.Errorf("window %d collector diverges from the manual per-day run", i)
		}
	}
}

// recordTrace pumps days of generated traffic into a trace file, as
// dnsnoise-gen does, over a world of its own built from the test seeds, so
// a live run over another such world resolves the recorded stream.
func recordTrace(t testing.TB, name string, days int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	w, done, err := traceio.CreatePath(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Pump(NewGeneratorSource(newTestEnv(t).gen, testProfiles(days)...), w); err != nil {
		t.Fatal(err)
	}
	if err := done(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTrace records two generated days and runs the same days live,
// returning the live windows plus the trace path.
func writeTrace(t *testing.T, name string, parallel bool) (live []Window, path string) {
	t.Helper()
	path = recordTrace(t, name, 2)
	env := newTestEnv(t)
	var opts []Option
	if parallel {
		opts = append(opts, WithParallel())
	}
	live = runWindows(t, env.cluster(t), NewGeneratorSource(env.gen, testProfiles(2)...), opts...)
	return live, path
}

// replayWindows replays a trace with the recording's world rebuilt from
// its seeds: the same registry, and a day-start hook walking it through
// the same per-day profile states the live generator produced.
func replayWindows(t *testing.T, path string, parallel bool) []Window {
	t.Helper()
	env := newTestEnv(t)
	opts := []Option{OnDayStart(ReplayProfiles(env.gen, workload.DecemberProfile))}
	if parallel {
		opts = append(opts, WithParallel())
	}
	src := NewTraceSource(path)
	windows := runWindows(t, env.cluster(t), src, opts...)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	return windows
}

// recordProjection reduces a collector's per-record state to everything
// except the RData portion of the record key, sorted canonically. The
// varying-RData disposable zones mint their answer strings from a shared
// fetch counter, so cross-server fetch interleaving relabels records in
// parallel runs; every other per-record quantity is deterministic.
type recordRow struct {
	Name     string
	Type     dnsmsg.Type
	TTL      uint32
	Below    uint64
	Above    uint64
	Category cache.Category
	Clients  int
	Sat      bool
}

func recordProjection(c *chrstat.Collector) []recordRow {
	recs := c.Records()
	rows := make([]recordRow, 0, len(recs))
	for _, st := range recs {
		n, sat := st.Clients()
		rows = append(rows, recordRow{
			Name: st.Name, Type: st.Type, TTL: st.TTL,
			Below: st.Below, Above: st.Above,
			Category: st.Category, Clients: n, Sat: sat,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.TTL != b.TTL {
			return a.TTL < b.TTL
		}
		if a.Below != b.Below {
			return a.Below < b.Below
		}
		return a.Above < b.Above
	})
	return rows
}

// TestTraceReplayEquivalence is the ingest layer's core guarantee: a
// seeded day sequence recorded to a trace (gzip included) and replayed
// through a TraceSource reproduces the live generator run — bitwise on
// the sequential path; on the parallel path, identical in every
// measurement and per-record statistic (record identities for
// varying-RData zones are labeled in cross-server fetch-arrival order,
// which is scheduling-dependent, so bitwise state equality is only
// defined sequentially).
func TestTraceReplayEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name      string
		traceName string
		parallel  bool
	}{
		{"sequential-gzip", "trace.jsonl.gz", false},
		{"parallel", "trace.jsonl", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live, path := writeTrace(t, tc.traceName, tc.parallel)
			replayed := replayWindows(t, path, tc.parallel)

			if len(replayed) != len(live) {
				t.Fatalf("replay emitted %d windows, live %d", len(replayed), len(live))
			}
			for i := range live {
				if !live[i].Date.Equal(replayed[i].Date) || live[i].Queries != replayed[i].Queries {
					t.Errorf("window %d shape: live (%s, %d) vs replay (%s, %d)",
						i, live[i].Date, live[i].Queries, replayed[i].Date, replayed[i].Queries)
				}
				if tc.parallel {
					if !reflect.DeepEqual(recordProjection(live[i].Collector), recordProjection(replayed[i].Collector)) {
						t.Errorf("window %d per-record statistics diverge between live and replay", i)
					}
					if !reflect.DeepEqual(measurements(live[i].Collector), measurements(replayed[i].Collector)) {
						t.Errorf("window %d measurements diverge between live and replay", i)
					}
				} else if !reflect.DeepEqual(live[i].Collector, replayed[i].Collector) {
					t.Errorf("window %d collector state diverges between live and replay", i)
				}
			}
		})
	}
}

// measurements reduces a collector to the derived quantities the paper's
// experiments consume. RRStat.TTL is deliberately excluded: it records the
// TTL of the first observation per record, and a record straddling a TTL
// era change is first seen in global order sequentially but in per-shard
// order in parallel, so the field is only bitwise-stable within one mode.
func measurements(c *chrstat.Collector) map[string]any {
	below, above, belowNX, aboveNX := c.Totals()
	chr := c.CHRSample(nil, 0)
	sort.Float64s(chr)
	vols := c.LookupVolumes(nil)
	sort.Float64s(vols)
	clients := c.ClientCounts(nil)
	sort.Float64s(clients)
	return map[string]any{
		"totals":  []uint64{below, above, belowNX, aboveNX},
		"records": c.NumRecords(),
		"chr":     chr,
		"volumes": vols,
		"clients": clients,
	}
}

// TestCrossModeReplayEquivalence replays a sequential recording through
// the parallel path: every derived measurement must match.
func TestCrossModeReplayEquivalence(t *testing.T) {
	live, path := writeTrace(t, "trace.jsonl", false)
	replayed := replayWindows(t, path, true)
	if len(replayed) != len(live) {
		t.Fatalf("replay emitted %d windows, live %d", len(replayed), len(live))
	}
	for i := range live {
		if !reflect.DeepEqual(measurements(live[i].Collector), measurements(replayed[i].Collector)) {
			t.Errorf("window %d measurements diverge between sequential live and parallel replay", i)
		}
	}
}

// TestLaterWindowsMatchAcrossModes: from the second day on, a window's
// collector is sized from the last window's — shard by shard in parallel,
// where the last window's shards were folded into its shard 0 in place.
// Three days through one sequential runner and through one parallel runner
// must measure the same, window by window.
func TestLaterWindowsMatchAcrossModes(t *testing.T) {
	profiles := testProfiles(3)
	var runs [2][]Window
	for i, mode := range modes {
		env := newTestEnv(t)
		runs[i] = runWindows(t, env.cluster(t), NewGeneratorSource(env.gen, profiles...), mode.opts...)
		if len(runs[i]) != len(profiles) {
			t.Fatalf("%s: %d windows, want %d", mode.name, len(runs[i]), len(profiles))
		}
	}
	for i, seq := range runs[0] {
		par := runs[1][i]
		if seq.Queries != par.Queries || seq.Collector.NumNames() != par.Collector.NumNames() {
			t.Errorf("window %d: sequential %d queries over %d names, parallel %d over %d",
				i, seq.Queries, seq.Collector.NumNames(), par.Queries, par.Collector.NumNames())
		}
		if !reflect.DeepEqual(measurements(seq.Collector), measurements(par.Collector)) {
			t.Errorf("window %d measurements diverge between one sequential and one parallel runner", i)
		}
	}
}

// mineFindings runs the mining pipeline on a collector the way the mine
// CLI does: train on the registry's labels, then execute Algorithm 1.
// trainMiner trains the classifier on one collector's statistics and
// wraps it into a miner, mirroring the CLI pipeline.
func trainMiner(t *testing.T, reg *workload.Registry, col *chrstat.Collector) *core.Miner {
	t.Helper()
	byName := col.ByName()
	tree := core.BuildTree(byName, nil)
	examples := core.BuildTrainingSet(tree, byName, reg.TrainingLabels(401), core.TrainingConfig{})
	clf, err := core.TrainClassifier(examples, core.TrainingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	miner, err := core.NewMiner(clf, core.MinerConfig{Theta: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return miner
}

func mineFindings(t *testing.T, reg *workload.Registry, col *chrstat.Collector) []core.Finding {
	t.Helper()
	byName := col.ByName()
	miner := trainMiner(t, reg, col)
	findings, err := miner.Mine(core.BuildTree(byName, nil), byName)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// TestReplayFindingsMatchLive closes the loop at the miner: the zones
// mined from a replayed trace must be identical to those mined live.
func TestReplayFindingsMatchLive(t *testing.T) {
	path := recordTrace(t, "trace.jsonl.gz", 2)
	liveEnv := newTestEnv(t)
	live := runWindows(t, liveEnv.cluster(t),
		NewGeneratorSource(liveEnv.gen, testProfiles(2)...), WithSingleWindow())

	replayEnv := newTestEnv(t)
	src := NewTraceSource(path)
	replayed := runWindows(t, replayEnv.cluster(t), src,
		OnDayStart(ReplayProfiles(replayEnv.gen, workload.DecemberProfile)),
		WithSingleWindow())
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	if len(live) != 1 || len(replayed) != 1 {
		t.Fatalf("windows: live %d, replay %d, want 1 each", len(live), len(replayed))
	}
	a := mineFindings(t, liveEnv.reg, live[0].Collector)
	b := mineFindings(t, replayEnv.reg, replayed[0].Collector)
	if len(a) == 0 {
		t.Fatal("live run mined no findings; scale too small to compare")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("findings diverge: live mined %d zones, replay %d", len(a), len(b))
	}
}

// TestTraceSourceSpansFiles verifies a multi-file day sequence replays as
// one stream, mixing plain and gzip members, across many of the decoder's
// batches: the recorded queries, field for field what a sequential
// traceio.Reader + ToQuery loop decodes from the same files.
func TestTraceSourceSpansFiles(t *testing.T) {
	dir := t.TempDir()
	env := newTestEnv(t)
	var paths []string
	var want, read []resolver.Query
	for i, p := range testProfiles(3) {
		path := filepath.Join(dir, fmt.Sprintf("day%d.jsonl", i))
		if i%2 == 1 {
			path += ".gz"
		}
		w, done, err := traceio.CreatePath(path)
		if err != nil {
			t.Fatal(err)
		}
		day := NewGeneratorSource(env.gen, p)
		qs := drain(t, day)
		for _, q := range qs {
			if err := w.Consume(q); err != nil {
				t.Fatal(err)
			}
		}
		if err := done(); err != nil {
			t.Fatal(err)
		}
		want = append(want, qs...)
		paths = append(paths, path)
		read = append(read, readTraceFile(t, path)...)
	}
	if len(want) < 4*traceBatchLen || len(want)%traceBatchLen == 0 {
		t.Fatalf("%d queries: want several batches and a partial last one", len(want))
	}
	if !reflect.DeepEqual(read, want) {
		t.Fatal("a sequential read of the files differs from the recorded stream")
	}
	src := NewTraceSource(paths...)
	got := drain(t, src)
	if len(got) != len(read) {
		t.Fatalf("multi-file replay yields %d queries, want the %d a sequential read decodes", len(got), len(read))
	}
	for i := range read {
		if got[i] != read[i] {
			t.Fatalf("query %d: replay %+v, sequential read %+v", i, got[i], read[i])
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("Next past the end = %v, want io.EOF again", err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// readTraceFile decodes path with a plain traceio.Reader + ToQuery loop.
func readTraceFile(t *testing.T, path string) []resolver.Query {
	t.Helper()
	r, done, err := traceio.OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	var out []resolver.Query
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		q, err := ev.ToQuery()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q)
	}
}

func TestSingleWindowModes(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			env := newTestEnv(t)
			windows := runWindows(t, env.cluster(t),
				NewGeneratorSource(env.gen, testProfiles(2)...), append(m.opts, WithSingleWindow())...)
			if len(windows) != 1 {
				t.Fatalf("single-window run emitted %d windows, want 1", len(windows))
			}
			if windows[0].Queries == 0 {
				t.Error("single window resolved no queries")
			}

			// Empty stream: single-window mode still emits its one (empty)
			// window; rotating mode emits none.
			c := newTestEnv(t).cluster(t)
			empty := runWindows(t, c, &sliceSource{}, append(m.opts, WithSingleWindow())...)
			if len(empty) != 1 || empty[0].Queries != 0 {
				t.Errorf("empty single-window run = %+v, want one empty window", empty)
			}
			if got := runWindows(t, c, &sliceSource{}, m.opts...); len(got) != 0 {
				t.Errorf("empty rotating run emitted %d windows, want 0", len(got))
			}
		})
	}
}

// TestRunnerSinksObserveAllWindows checks that persistent sinks keep
// observing across rotations and that the windows count every query.
func TestRunnerSinksObserveAllWindows(t *testing.T) {
	env := newTestEnv(t)
	c := env.cluster(t)
	var counts countSink
	windows := runWindows(t, c, NewGeneratorSource(env.gen, testProfiles(2)...), WithSinks(&counts))

	var below uint64
	total := 0
	for _, w := range windows {
		b, _, _, _ := w.Collector.Totals()
		below += b
		total += w.Queries
	}
	if counts.below != below {
		t.Errorf("persistent sink saw %d below observations, collectors saw %d", counts.below, below)
	}
	if got := c.Stats().Queries; got != uint64(total) {
		t.Errorf("cluster resolved %d queries, windows counted %d", got, total)
	}
}

// countSink tallies observations per side.
type countSink struct{ below, above uint64 }

func (c *countSink) ObserveBelow(resolver.Observation) { c.below++ }
func (c *countSink) ObserveAbove(resolver.Observation) { c.above++ }

// TestTraceBadNameStopsAtItsLine: a name the wire codec cannot encode is
// refused where it is read — file and line in the error, nothing resolved
// past the line before — not at its first cache miss deep inside a replay.
// Both of the reader's decode paths apply the rule.
func TestTraceBadNameStopsAtItsLine(t *testing.T) {
	long := strings.Repeat("a", 64)
	for name, bad := range map[string]string{
		"canonical line": `{"ts":"2011-12-01T00:00:01Z","client":2,"name":"` + long + `.example.com","type":"A","disposable":false}`,
		"json fallback":  `{"client":2,"ts":"2011-12-01T00:00:01Z","name":"` + long + `.example.com","type":"A","disposable":false}`,
		"empty label":    `{"ts":"2011-12-01T00:00:01Z","client":2,"name":"www..example.com","type":"A","disposable":false}`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			trace := `{"ts":"2011-12-01T00:00:00Z","client":1,"name":"www.google.com","type":"A","disposable":false}` + "\n" +
				bad + "\n" +
				`{"ts":"2011-12-01T00:00:02Z","client":3,"name":"mail.google.com","type":"A","disposable":false}` + "\n"
			if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
				t.Fatal(err)
			}
			c := newTestEnv(t).cluster(t)
			src := NewTraceSource(path)
			defer src.Close()
			err := NewRunner(c).Run(src)
			if !errors.Is(err, traceio.ErrBadEvent) {
				t.Fatalf("Run = %v, want ErrBadEvent", err)
			}
			if want := "trace " + path + ": traceio: malformed event: line 2"; !strings.Contains(err.Error(), want) {
				t.Errorf("Run = %q, want it to contain %q", err, want)
			}
			if got := c.Stats().Queries; got != 1 {
				t.Errorf("resolved %d queries, want only line 1", got)
			}
		})
	}
}
