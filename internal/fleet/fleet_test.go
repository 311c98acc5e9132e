package fleet_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/fleet"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/alerts"
	"dnsnoise/internal/telemetry/tsdb"
	"dnsnoise/internal/workload"
)

// testConfig is the repo's small-scale workload convention, fleet-shaped.
func testConfig(pops int) fleet.Config {
	return fleet.Config{
		Pops: pops,
		Scale: sim.Scale{
			Seed:               1,
			NonDisposableZones: 60,
			DisposableZones:    30,
			HostsPerZoneMax:    16,
			Clients:            100,
			BaseEventsPerDay:   8000,
			Servers:            2,
			CacheSize:          8192,
		},
	}
}

// runFleet builds a fleet over the shared test workload and pulls the
// live generator source dry through it.
func runFleet(t *testing.T, cfg fleet.Config, days int) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := workload.SelectProfiles("december", days)
	if err != nil {
		t.Fatal(err)
	}
	src := ingest.NewGeneratorSource(f.Env().Generator, profiles...)
	defer src.Close()
	if err := f.Run(src, nil); err != nil {
		t.Fatal(err)
	}
	return f
}

// startObs starts obs the way a CLI does after parsing its flags, with the
// HTTP endpoint on a free loopback port, and returns the endpoint's base
// URL. The session closes when the test ends.
func startObs(t *testing.T, obs *sim.Obs) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	obs.MetricsAddr = ln.Addr().String()
	ln.Close()
	if err := obs.Start("dnsnoise-fleet", nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { obs.Close() })
	return "http://" + obs.MetricsAddr
}

// get fetches url and returns its status code and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// tail fetches a /debug/qlog query and returns its events.
func tail(t *testing.T, url string) []qlog.Event {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, code, body)
	}
	var out struct {
		Events []qlog.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Events
}

// varyingZonePred builds the RDataVaries suffix matcher for the test
// namespace: records under reputation/DNSBL-style zones mint fresh
// rdata per authoritative fetch (via a shared counter), so their
// contents depend on how queries partition across caches and are
// excluded from bit-identical comparisons — the repo's established
// stance for cross-topology equivalence (see resolver's parallel tests).
func varyingZonePred(reg *workload.Registry) func(name string) bool {
	var varying []string
	for _, spec := range reg.AllZones() {
		if spec.RDataVaries {
			varying = append(varying, spec.Zone)
		}
	}
	return func(name string) bool {
		for _, z := range varying {
			if name == z || strings.HasSuffix(name, "."+z) {
				return true
			}
		}
		return false
	}
}

// stableRecords returns the sorted multiset of a store's records under
// non-varying zones, one line per record.
func stableRecords(s *pdns.Store, varying func(string) bool) []string {
	var out []string
	for _, r := range s.Records() {
		if varying(r.Name) {
			continue
		}
		out = append(out, fmt.Sprintf("%s|%d|%s|%d|%d",
			r.Name, r.Type, r.RData.Format(r.Type), r.FirstSeen().UnixNano(), r.Category))
	}
	sort.Strings(out)
	return out
}

// TestFleetMatchesSingleCluster is the acceptance check: a 3-PoP fleet's
// query total and merged rpDNS view are bit-identical to the equivalent
// single-cluster run (a 1-PoP fleet) over the same two-day workload.
func TestFleetMatchesSingleCluster(t *testing.T) {
	f3 := runFleet(t, testConfig(3), 2)
	f1 := runFleet(t, testConfig(1), 2)

	var q3, q1 uint64
	for _, p := range f3.Pops() {
		q3 += p.Cluster.Stats().Queries
	}
	q1 = f1.Pops()[0].Cluster.Stats().Queries
	if q3 == 0 || q3 != q1 {
		t.Fatalf("query totals diverge: fleet %d vs single %d", q3, q1)
	}

	varying := varyingZonePred(f3.Env().Registry)
	r3 := stableRecords(f3.MergedStore(), varying)
	r1 := stableRecords(f1.Pops()[0].Store, varying)
	if len(r3) == 0 {
		t.Fatal("no stable pdns records to compare")
	}
	if !reflect.DeepEqual(r3, r1) {
		i := 0
		for i < len(r3) && i < len(r1) && r3[i] == r1[i] {
			i++
		}
		t.Fatalf("merged pdns diverges from single-cluster: %d vs %d records, first difference at %d",
			len(r3), len(r1), i)
	}
}

// TestFleetSteering pins the client-to-PoP mapping: rendezvous is stable
// per client, touches every PoP, and growing the fleet by one PoP moves a
// client only to the new PoP.
func TestFleetSteering(t *testing.T) {
	f3, err := fleet.New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	f4, err := fleet.New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]int, 3)
	moved := 0
	for c := uint32(0); c < 300; c++ {
		p := f3.Route(c)
		if p2 := f3.Route(c); p2 != p {
			t.Fatalf("rendezvous Route(%d) unstable: %d then %d", c, p, p2)
		}
		hits[p]++
		if q := f4.Route(c); q != p {
			if q != 3 {
				t.Fatalf("growing to 4 pops moved client %d from pop %d to pop %d", c, p, q)
			}
			moved++
		}
	}
	for i, n := range hits {
		if n == 0 {
			t.Fatalf("rendezvous steering never picked pop %d (hits %v)", i, hits)
		}
	}
	if moved == 0 || moved > 150 {
		t.Fatalf("growing to 4 pops moved %d of 300 clients, want some and at most half", moved)
	}
}

// TestFleetControlPlane observes a small fleet through one session, as
// dnsnoise-fleet does, over real HTTP: /metrics holds every PoP's series
// under its pop= label and the runtime gauges once, nothing answers under
// /fleet/, and the -report file holds one span tree per PoP. That a
// pop-labelled exposition is strict Prometheus text is
// telemetry.TestSnapshotWritePrometheusStrict's to show.
func TestFleetControlPlane(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	obs := &sim.Obs{ReportPath: report}
	base := startObs(t, obs)
	cfg := testConfig(3)
	cfg.Obs = obs
	runFleet(t, cfg, 1)

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	popsSeen := map[string]bool{}
	goroutines := 0
	for _, line := range strings.Split(string(body), "\n") {
		series, _, _ := strings.Cut(line, " ")
		switch base, labels := telemetry.SplitSeries(series); base {
		case "resolver_queries_total":
			popsSeen[telemetry.LabelValue(labels, "pop")] = true
		case "go_goroutines":
			goroutines++
		}
	}
	for i := 0; i < 3; i++ {
		if !popsSeen[fmt.Sprint(i)] {
			t.Fatalf("/metrics missing resolver_queries_total for pop %d (saw %v)", i, popsSeen)
		}
	}
	if goroutines != 1 {
		t.Fatalf("/metrics has %d go_goroutines series, want 1", goroutines)
	}
	if code, _ := get(t, base+"/fleet/metrics"); code != http.StatusNotFound {
		t.Fatalf("/fleet/metrics answered %d, want 404: the fleet has no endpoint of its own", code)
	}

	if err := obs.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) != 3 {
		t.Fatalf("report has %d span trees, want one per PoP", len(rep.Spans))
	}
	for i, sp := range rep.Spans {
		if sp.Name != fmt.Sprintf("pop-%d", i) || len(sp.Children) == 0 {
			t.Fatalf("span tree %d = %q with %d children", i, sp.Name, len(sp.Children))
		}
	}
	if rep.Metrics.Counter(`resolver_queries_total{server="0",pop="2"}`) == 0 {
		t.Fatalf("report metrics lack pop-labelled counters: %v", rep.Metrics.Counters)
	}
}

// TestFleetCollectorStatus: the per-PoP query counters the session's
// registry collects add up to each cluster's own, and without a scorer no
// event in the session's tail carries a verdict.
func TestFleetCollectorStatus(t *testing.T) {
	obs := &sim.Obs{QlogSample: 1, QlogMem: 1 << 16}
	base := startObs(t, obs)
	cfg := testConfig(2)
	cfg.Obs = obs
	f := runFleet(t, cfg, 1)

	perPop := map[string]uint64{}
	for name, v := range obs.Registry.Snapshot().Counters {
		if !strings.HasPrefix(name, "resolver_queries_total{") {
			continue
		}
		for i := range f.Pops() {
			if strings.Contains(name, fmt.Sprintf("pop=%q", fmt.Sprint(i))) {
				perPop[fmt.Sprint(i)] += v
			}
		}
	}
	for i, p := range f.Pops() {
		q := p.Cluster.Stats().Queries
		if q == 0 || perPop[fmt.Sprint(i)] != q {
			t.Fatalf("pop %d: Σ resolver_queries_total = %d, cluster resolved %d", i, perPop[fmt.Sprint(i)], q)
		}
	}
	evs := tail(t, base+"/debug/qlog?n=0")
	if len(evs) == 0 {
		t.Fatal("no events in the session's tail")
	}
	for _, ev := range evs {
		if ev.Verdict != qlog.VerdictNone {
			t.Fatalf("event carries a verdict without a scorer: %+v", ev)
		}
	}
}

// observedFleet runs a 3-PoP fleet under a session whose tsdb sweeps
// every 20ms with the given rules file ("" for the built-in defaults),
// and returns the session's base URL.
func observedFleet(t *testing.T, rules string) string {
	t.Helper()
	obs := &sim.Obs{
		QlogSample: 64, QlogMem: 1024,
		TSDBInterval: 20 * time.Millisecond, AlertRules: rules,
	}
	base := startObs(t, obs)
	cfg := testConfig(3)
	cfg.Obs = obs
	runFleet(t, cfg, 1)
	return base
}

// tsdbSeries fetches a /debug/tsdb query and returns its series.
func tsdbSeries(t *testing.T, url string) []tsdb.Result {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, code, body)
	}
	var out struct {
		Series []tsdb.Result `json:"series"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Series
}

// alertStatus fetches /debug/alerts.
func alertStatus(t *testing.T, base string) alerts.Status {
	t.Helper()
	code, body := get(t, base+"/debug/alerts")
	if code != http.StatusOK {
		t.Fatalf("/debug/alerts: %d %s", code, body)
	}
	var st alerts.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFleetTSDB: the session's tsdb sweeps every PoP's series under its
// pop= label (the derived qps one per PoP from its second sweep on), and a
// rule firing once per PoP × server series (3 × 2) mirrors each transition
// into the session's query log as an ALERT event.
func TestFleetTSDB(t *testing.T) {
	rules := filepath.Join(t.TempDir(), "rules.json")
	// One rule that fires on the first sweep that sees a series: the query
	// counters pass half a query as soon as the PoPs resolve anything.
	if err := os.WriteFile(rules, []byte(`{"rules": [{"name": "queries_seen",
		"series": "resolver_queries_total", "agg": "max", "threshold": 0.5, "window": "1m"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := observedFleet(t, rules)

	var (
		st  alerts.Status
		qps []tsdb.Result
	)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		st = alertStatus(t, base)
		qps = tsdbSeries(t, base+"/debug/tsdb?series=resolver_qps")
		if st.Firing == 6 && len(qps) >= 3 || time.Now().After(deadline) {
			break
		}
	}
	if st.Firing != 6 || st.Evals == 0 {
		t.Fatalf("/debug/alerts: %d firing after %d evals, want 6 (per pop x server)", st.Firing, st.Evals)
	}
	if len(qps) < 3 {
		t.Fatalf("/debug/tsdb resolver_qps: %d series, want one per PoP", len(qps))
	}

	popsSeen := map[string]bool{}
	for _, r := range tsdbSeries(t, base+"/debug/tsdb?series=resolver_queries_total&agg=max") {
		if len(r.Points) == 0 || r.Points[len(r.Points)-1].V <= 0 {
			t.Fatalf("series %s has no positive history: %+v", r.Name, r.Points)
		}
		for i := 0; i < 3; i++ {
			if strings.Contains(r.Name, fmt.Sprintf("pop=%q", fmt.Sprint(i))) {
				popsSeen[fmt.Sprint(i)] = true
			}
		}
	}
	if len(popsSeen) != 3 {
		t.Fatalf("per-PoP resolver_queries_total history for pops %v, want all three", popsSeen)
	}

	evs := tail(t, base+"/debug/qlog?qtype=ALERT&n=0")
	if len(evs) != 6 {
		t.Fatalf("ALERT events in /debug/qlog = %+v, want 6", evs)
	}
	for _, ev := range evs {
		if ev.Name != "queries_seen.firing.alert" {
			t.Fatalf("unexpected alert event %+v", ev)
		}
	}
}

// TestFleetTSDBEndpoints: with -tsdb-interval set the session serves
// /debug/tsdb (pop-labelled series) and /debug/alerts (the default rules
// evaluated); without it those routes are absent, and the fleet never
// answers under /fleet/.
func TestFleetTSDBEndpoints(t *testing.T) {
	base := observedFleet(t, "")
	var st alerts.Status
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if st = alertStatus(t, base); st.Evals > 0 || time.Now().After(deadline) {
			break
		}
	}
	if st.Evals == 0 || len(st.Rules) == 0 {
		t.Fatalf("/debug/alerts status = %+v, want default rules evaluated", st)
	}
	series := tsdbSeries(t, base+"/debug/tsdb?series=resolver_queries_total&agg=max")
	if len(series) == 0 || !strings.Contains(series[0].Name, "pop=") {
		t.Fatalf("/debug/tsdb series = %+v, want pop-labelled", series)
	}
	for _, path := range []string{"/fleet/tsdb", "/fleet/alerts"} {
		if code, _ := get(t, base+path); code != http.StatusNotFound {
			t.Fatalf("%s answered %d, want 404", path, code)
		}
	}

	plain := startObs(t, &sim.Obs{})
	for _, path := range []string{"/debug/tsdb", "/debug/alerts"} {
		if code, _ := get(t, plain+path); code != http.StatusNotFound {
			t.Fatalf("%s without -tsdb-interval answered %d, want 404", path, code)
		}
	}
}

// TestFleetQlogIDsUnique: every PoP numbers its events in the session's
// one sequence, so the fleet's tail never repeats an id, and ?pop= scopes
// it to one vantage point.
func TestFleetQlogIDsUnique(t *testing.T) {
	obs := &sim.Obs{QlogSample: 1, QlogMem: 1 << 16}
	base := startObs(t, obs)
	cfg := testConfig(3)
	cfg.Obs = obs
	runFleet(t, cfg, 1)

	ids := map[uint64]bool{}
	pops := map[int32]int{}
	for _, ev := range tail(t, base+"/debug/qlog?n=0") {
		if ids[ev.ID] {
			t.Fatalf("event id %d appears twice in the fleet's tail", ev.ID)
		}
		ids[ev.ID] = true
		pops[ev.Pop]++
	}
	if len(pops) != 3 {
		t.Fatalf("events per pop = %v, want all three", pops)
	}
	one := tail(t, base+"/debug/qlog?pop=1&n=0")
	if len(one) != pops[1] {
		t.Fatalf("?pop=1 returned %d events, pop 1 logged %d", len(one), pops[1])
	}
	for _, ev := range one {
		if ev.Pop != 1 {
			t.Fatalf("?pop=1 leaked an event from pop %d", ev.Pop)
		}
	}
}

// TestFleetScorerStampsVerdicts attaches the incremental miner to every
// PoP (classifier trained on a single-cluster pre-pass, as the CLI
// does) and checks live verdicts land in the session's event tail.
func TestFleetScorerStampsVerdicts(t *testing.T) {
	cfg := testConfig(2)
	clf := trainTestClassifier(t, cfg)
	obs := &sim.Obs{QlogSample: 1, QlogMem: 1 << 16}
	base := startObs(t, obs)
	cfg.Obs = obs
	cfg.ScoreWindow = 6 * time.Hour
	cfg.NewScorer = func(int) (*core.StreamingPipeline, error) {
		return core.NewStreamingPipeline(clf,
			core.MinerConfig{Theta: 0.5},
			core.StreamingConfig{Hysteresis: 1, NumServers: 2}, nil)
	}
	runFleet(t, cfg, 2)
	var benign, disposable int
	for _, ev := range tail(t, base+"/debug/qlog?n=0") {
		switch ev.Verdict {
		case qlog.VerdictBenign:
			benign++
		case qlog.VerdictDisposable:
			disposable++
		}
	}
	if benign == 0 || disposable == 0 {
		t.Fatalf("scored tail looks wrong: %d benign, %d disposable", benign, disposable)
	}
}

// failingSource passes n queries through, then fails with err.
type failingSource struct {
	ingest.QuerySource
	n   int
	err error
}

func (s *failingSource) Next() (resolver.Query, error) {
	if s.n == 0 {
		return resolver.Query{}, s.err
	}
	q, err := s.QuerySource.Next()
	if err == nil {
		s.n--
	}
	return q, err
}

// stubClassifier finds nothing disposable or, with fail set, cannot score
// a zone, so a window that mines anything fails.
type stubClassifier struct{ fail bool }

var errClassifier = errors.New("classifier down")

func (stubClassifier) Fit([][]float64, []bool) error { return nil }

func (c stubClassifier) PredictProb([]float64) (float64, error) {
	if c.fail {
		return 0, errClassifier
	}
	return 0, nil
}

// TestFleetRunErrorJoins stops a parallel 3-PoP run two ways — its source
// failing mid-day, and one PoP's scorer failing a re-score — and checks
// that Run returns the error, naming the PoP in the second case, with
// every PoP's resolver workers joined.
func TestFleetRunErrorJoins(t *testing.T) {
	errSource := errors.New("source down")
	for _, tc := range []struct {
		name   string
		n      int // queries before the source fails; -1 never
		scorer bool
		want   error
		prefix string
	}{
		{"source", 2000, false, errSource, ""},
		{"scorer", -1, true, errClassifier, "fleet: pop 1: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(3)
			cfg.Parallel = true
			if tc.scorer {
				cfg.ScoreWindow = time.Hour
				cfg.NewScorer = func(pop int) (*core.StreamingPipeline, error) {
					return core.NewStreamingPipeline(stubClassifier{fail: pop == 1}, core.MinerConfig{Theta: 0.5},
						core.StreamingConfig{NumServers: 2}, nil)
				}
			}
			f, err := fleet.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			profiles, err := workload.SelectProfiles("december", 2)
			if err != nil {
				t.Fatal(err)
			}
			src := &failingSource{QuerySource: ingest.NewGeneratorSource(f.Env().Generator, profiles...), n: tc.n, err: errSource}
			before := runtime.NumGoroutine()
			err = f.Run(src, nil)
			if !errors.Is(err, tc.want) || !strings.HasPrefix(err.Error(), tc.prefix) {
				t.Fatalf("Run = %v, want %q wrapped as %q…", err, tc.want, tc.prefix)
			}
			for i := 0; runtime.NumGoroutine() > before; i++ {
				if i == 50 {
					t.Fatalf("goroutines: %d before Run, %d after — leak", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// trainTestClassifier mirrors the CLI's -score pre-pass at test scale.
func trainTestClassifier(t *testing.T, cfg fleet.Config) *mlearn.DecisionTree {
	t.Helper()
	env, err := sim.NewEnv(cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	w, err := (&sim.Source{Live: true, Profile: "december", Days: 1}).Run(env)
	if err != nil {
		t.Fatal(err)
	}
	clf, _, err := env.Train(w.Collector.ByName(), core.TrainingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}
