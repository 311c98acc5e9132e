package fleet_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
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
	"dnsnoise/internal/telemetry/promtext"
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
		HourlySeries: []fleet.HourlySeries{
			{Name: "even-clients", Pred: func(ob resolver.Observation) bool { return ob.ClientID%2 == 0 }},
		},
		CollectEvery: time.Hour, // sweeps driven explicitly in tests
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
			r.Name, r.Type, r.RData.Format(r.Type), r.FirstSeen.UnixNano(), r.Category))
	}
	sort.Strings(out)
	return out
}

// TestFleetMatchesSingleCluster is the acceptance check: a 3-PoP fleet's
// merged paper measurements are bit-identical to the equivalent
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

	h3, h1 := f3.MergedHourly(), f1.MergedHourly()
	for _, name := range []string{"all", "even-clients"} {
		s3, s1 := h3.Series(name), h1.Series(name)
		if len(s3) == 0 {
			t.Fatalf("hourly series %q is empty", name)
		}
		if !reflect.DeepEqual(s3, s1) {
			t.Errorf("hourly series %q diverges between 3-PoP and single-cluster", name)
		}
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

// TestFleetSteering pins the client-to-PoP mappings: modulo is exact,
// rendezvous is stable per client and touches every PoP.
func TestFleetSteering(t *testing.T) {
	if _, err := fleet.ParseSteering("bogus"); err == nil {
		t.Fatal("ParseSteering accepted bogus")
	}
	cfg := testConfig(3)
	cfg.Steering = fleet.SteeringModulo
	fm, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := uint32(0); c < 50; c++ {
		if got := fm.Route(c); got != int(c)%3 {
			t.Fatalf("modulo Route(%d) = %d", c, got)
		}
	}
	fh, err := fleet.New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]int, 3)
	for c := uint32(0); c < 300; c++ {
		p := fh.Route(c)
		if p2 := fh.Route(c); p2 != p {
			t.Fatalf("rendezvous Route(%d) unstable: %d then %d", c, p, p2)
		}
		hits[p]++
	}
	for i, n := range hits {
		if n == 0 {
			t.Fatalf("rendezvous steering never picked pop %d (hits %v)", i, hits)
		}
	}
}

// TestFleetControlPlane runs a small fleet and exercises all four
// /fleet/* endpoints over real HTTP: strict Prometheus exposition with
// per-PoP labels, per-PoP health JSON, the pop-filterable merged event
// tail, and the run report with one span tree per PoP.
func TestFleetControlPlane(t *testing.T) {
	cfg := testConfig(3)
	cfg.QlogSample = 1 // log every query so the tail covers all pops
	f := runFleet(t, cfg, 1)
	srv, err := f.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// /fleet/metrics: strict exposition, every PoP labeled.
	body := get("/fleet/metrics")
	samples, err := promtext.Parse(string(body))
	if err != nil {
		t.Fatalf("/fleet/metrics is not strict Prometheus text: %v", err)
	}
	if n, err := promtext.CheckHistograms(samples); err != nil || n == 0 {
		t.Fatalf("/fleet/metrics histograms invalid (%d checked): %v", n, err)
	}
	popsSeen := map[string]bool{}
	for _, sm := range samples {
		if sm.Name == "resolver_queries_total" {
			popsSeen[sm.Labels["pop"]] = true
		}
	}
	for i := 0; i < 3; i++ {
		if !popsSeen[fmt.Sprint(i)] {
			t.Fatalf("/fleet/metrics missing resolver_queries_total for pop %d (saw %v)", i, popsSeen)
		}
	}

	// /fleet/pops: one health line per PoP with sane ratios.
	var pops struct {
		Steering string            `json:"steering"`
		Pops     []fleet.PopStatus `json:"pops"`
	}
	if err := json.Unmarshal(get("/fleet/pops"), &pops); err != nil {
		t.Fatal(err)
	}
	if pops.Steering != "hash" || len(pops.Pops) != 3 {
		t.Fatalf("/fleet/pops: steering %q, %d pops", pops.Steering, len(pops.Pops))
	}
	for _, ps := range pops.Pops {
		if ps.Queries == 0 || ps.CacheHitRatio < 0 || ps.CacheHitRatio > 1 || ps.PdnsRecords == 0 {
			t.Fatalf("pop %d status implausible: %+v", ps.Pop, ps)
		}
	}

	// /fleet/qlog: merged tail, pop filter scopes to one vantage point.
	var tail struct {
		Total    uint64       `json:"total"`
		Returned int          `json:"returned"`
		Events   []qlog.Event `json:"events"`
	}
	if err := json.Unmarshal(get("/fleet/qlog?pop=1&n=50"), &tail); err != nil {
		t.Fatal(err)
	}
	if tail.Returned == 0 {
		t.Fatal("/fleet/qlog?pop=1 returned no events")
	}
	for _, ev := range tail.Events {
		if ev.Pop != 1 {
			t.Fatalf("pop filter leaked event from pop %d", ev.Pop)
		}
	}

	// /fleet/report: one span tree per PoP, merged metrics embedded.
	var rep telemetry.RunReport
	if err := json.Unmarshal(get("/fleet/report"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Command != "dnsnoise-fleet" || len(rep.Spans) != 3 {
		t.Fatalf("/fleet/report: command %q, %d span trees", rep.Command, len(rep.Spans))
	}
	for i, sp := range rep.Spans {
		if sp.Name != fmt.Sprintf("pop-%d", i) || len(sp.Children) == 0 {
			t.Fatalf("span tree %d = %q with %d children", i, sp.Name, len(sp.Children))
		}
	}
	if rep.Metrics == nil || len(rep.Metrics.Counters) == 0 {
		t.Fatal("/fleet/report has no merged metrics")
	}
}

// TestFleetCollectorStatus drives two sweeps directly and checks the
// per-PoP derived stats (QPS appears on the second sweep, verdict rate
// stays zero without a scorer).
func TestFleetCollectorStatus(t *testing.T) {
	f := runFleet(t, testConfig(2), 1)
	c := f.Collector()
	c.Collect()
	time.Sleep(10 * time.Millisecond)
	c.Collect()
	merged, pops := c.Latest()
	if merged == nil || len(pops) != 2 {
		t.Fatalf("Latest: merged=%v, %d pops", merged != nil, len(pops))
	}
	var total uint64
	for _, ps := range pops {
		total += ps.Queries
		if ps.VerdictRate != 0 {
			t.Fatalf("verdict rate without scorer: %+v", ps)
		}
	}
	var snapTotal uint64
	for name, v := range merged.Counters {
		if strings.HasPrefix(name, "resolver_queries_total{") {
			snapTotal += v
		}
	}
	if total == 0 || snapTotal != total {
		t.Fatalf("merged counters disagree with cluster stats: %d vs %d", snapTotal, total)
	}
}

// TestFleetScorerStampsVerdicts attaches the incremental miner to every
// PoP (classifier trained on a single-cluster pre-pass, as the CLI
// does) and checks live verdicts land in the merged event tail.
func TestFleetScorerStampsVerdicts(t *testing.T) {
	cfg := testConfig(2)
	clf := trainTestClassifier(t, cfg)
	cfg.QlogSample = 1
	cfg.ScoreWindow = 6 * time.Hour
	cfg.NewScorer = func(int) (*core.StreamingPipeline, error) {
		return core.NewStreamingPipeline(clf,
			core.MinerConfig{Theta: 0.5},
			core.StreamingConfig{Hysteresis: 1, NumServers: 2}, nil)
	}
	f := runFleet(t, cfg, 2)
	var benign, disposable int
	for _, ev := range f.MergedQlog().Snapshot(qlog.Filter{}) {
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
	_, pops := f.Collector().Latest()
	var rated bool
	for _, ps := range pops {
		if ps.VerdictRate > 0 {
			rated = true
		}
	}
	if !rated {
		t.Fatalf("no PoP reports a verdict rate: %+v", pops)
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
