package alerts

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"dnsnoise/internal/qlog"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/tsdb"
)

var t0 = time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)

// feed drives the engine like a sweeper would: record a snapshot carrying
// one gauge value, then evaluate.
func feed(db *tsdb.DB, e *Engine, at time.Time, gauge float64) {
	db.Record(&telemetry.Snapshot{Time: at, Gauges: map[string]float64{"g": gauge}})
	e.Eval(at)
}

func state(e *Engine, rule, series string) string {
	for _, rs := range e.Snapshot().Rules {
		if rs.Name != rule {
			continue
		}
		for _, inst := range rs.Instances {
			if inst.Series == series {
				return inst.State
			}
		}
	}
	return "none"
}

// TestStateMachineTransitionTable walks the full lifecycle against a
// scripted value sequence: inactive while healthy, pending on violation,
// back to inactive when it clears early, firing once For elapses, resolved
// on recovery, and immediate firing when For is zero.
func TestStateMachineTransitionTable(t *testing.T) {
	// Window of 1s with samples 1s+ apart: each eval sees exactly the
	// newest sample, so the table reads as instantaneous values.
	rule := Rule{
		Name: "g_high", Series: "g", Agg: "max", Threshold: 10,
		Window: Duration(time.Second), For: Duration(2 * time.Second),
	}
	db := tsdb.New()
	e := NewEngine(db, []Rule{rule}, nil)

	steps := []struct {
		dt   time.Duration
		v    float64
		want string
	}{
		{0, 5, "inactive"},              // healthy
		{time.Second, 5, "inactive"},    // still healthy
		{time.Second, 15, "pending"},    // violation starts
		{time.Second, 15, "pending"},    // 1s < For
		{time.Second, 5, "inactive"},    // cleared before For: back down
		{time.Second, 20, "pending"},    // violation again
		{2 * time.Second, 20, "firing"}, // held For: fires
		{time.Second, 25, "firing"},     // stays firing
		{time.Second, 5, "inactive"},    // recovers: resolved
		{time.Second, 5, "inactive"},    // stays down
	}
	now := t0
	for i, s := range steps {
		now = now.Add(s.dt)
		feed(db, e, now, s.v)
		if got := state(e, "g_high", "g"); got != s.want {
			t.Fatalf("step %d (v=%v): state = %s, want %s", i, s.v, got, s.want)
		}
	}

	// The recorded transition sequence is the end-to-end story.
	var seq []string
	for _, tr := range e.Snapshot().Transitions {
		seq = append(seq, tr.To)
	}
	want := []string{"pending", "inactive", "pending", "firing", "resolved"}
	if len(seq) != len(want) {
		t.Fatalf("transitions = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s (%v)", i, seq[i], want[i], seq)
		}
	}
}

func TestZeroForFiresImmediately(t *testing.T) {
	rule := Rule{Name: "g_now", Series: "g", Agg: "max", Threshold: 10, Window: Duration(5 * time.Second)}
	db := tsdb.New()
	e := NewEngine(db, []Rule{rule}, nil)
	feed(db, e, t0, 99)
	if got := state(e, "g_now", "g"); got != "firing" {
		t.Fatalf("state = %s, want firing (For=0)", got)
	}
}

// TestShortWindowGuard: with a short burn-rate window configured, a stale
// long-window violation alone must not advance the machine once the short
// window has recovered.
func TestShortWindowGuard(t *testing.T) {
	rule := Rule{
		Name: "g_burn", Series: "g", Agg: "max", Threshold: 10,
		Window: Duration(20 * time.Second), ShortWindow: Duration(2 * time.Second),
	}
	db := tsdb.New()
	e := NewEngine(db, []Rule{rule}, nil)

	feed(db, e, t0, 50) // violates both windows: fires (For=0)
	if got := state(e, "g_burn", "g"); got != "firing" {
		t.Fatalf("state = %s, want firing", got)
	}
	// 5s later the short window only sees the healthy sample; the long
	// window still contains the 50. Burn-rate guard must resolve.
	feed(db, e, t0.Add(5*time.Second), 1)
	if got := state(e, "g_burn", "g"); got != "inactive" {
		t.Fatalf("state after short-window recovery = %s, want inactive", got)
	}
	if got := e.Snapshot().Transitions; got[len(got)-1].To != "resolved" {
		t.Fatalf("last transition = %+v, want resolved", got[len(got)-1])
	}
}

// TestPerSeriesInstances: one rule fans out per matched series (the fleet's
// per-PoP labels), with independent state machines.
func TestPerSeriesInstances(t *testing.T) {
	rule := Rule{Name: "qps_high", Series: "qps", Agg: "max", Threshold: 100, Window: Duration(5 * time.Second)}
	db := tsdb.New()
	e := NewEngine(db, []Rule{rule}, nil)
	db.Record(&telemetry.Snapshot{Time: t0, Gauges: map[string]float64{
		`qps{pop="0"}`: 500, `qps{pop="1"}`: 50,
	}})
	e.Eval(t0)
	if got := state(e, "qps_high", `qps{pop="0"}`); got != "firing" {
		t.Fatalf("pop0 = %s, want firing", got)
	}
	if got := state(e, "qps_high", `qps{pop="1"}`); got != "inactive" {
		t.Fatalf("pop1 = %s, want inactive", got)
	}
	st := e.Snapshot()
	if st.Firing != 1 {
		t.Fatalf("firing = %d, want 1", st.Firing)
	}
}

// TestNoDataResolves: a firing series that stops reporting resolves.
func TestNoDataResolves(t *testing.T) {
	rule := Rule{Name: "g_high", Series: "g", Agg: "max", Threshold: 10, Window: Duration(2 * time.Second)}
	db := tsdb.New()
	e := NewEngine(db, []Rule{rule}, nil)
	feed(db, e, t0, 99)
	if got := state(e, "g_high", "g"); got != "firing" {
		t.Fatalf("state = %s, want firing", got)
	}
	// Next eval far in the future: the window holds no samples at all.
	e.Eval(t0.Add(time.Minute))
	if got := state(e, "g_high", "g"); got != "inactive" {
		t.Fatalf("state with no data = %s, want inactive (resolved)", got)
	}
}

// TestQlogMirror: transitions show up in an attached query log as ALERT
// events, filterable like any other event.
func TestQlogMirror(t *testing.T) {
	l := qlog.New(qlog.Config{Sample: 1})
	mem := qlog.NewMemorySink(16)
	l.AddSink(mem)

	rule := Rule{Name: "g_high", Series: "g", Agg: "max", Threshold: 10, Window: Duration(2 * time.Second)}
	db := tsdb.New()
	e := NewEngine(db, []Rule{rule}, l)
	feed(db, e, t0, 99)                   // firing
	feed(db, e, t0.Add(3*time.Second), 1) // window slides past the 99: resolved

	evs := mem.Snapshot(qlog.Filter{Qtype: "ALERT"})
	if len(evs) != 2 {
		t.Fatalf("ALERT events = %+v, want 2", evs)
	}
	if evs[0].Name != "g_high.firing.alert" || evs[1].Name != "g_high.resolved.alert" {
		t.Fatalf("event names = %q, %q", evs[0].Name, evs[1].Name)
	}
	if evs[0].ID == 0 || evs[0].LatencyNs != 99 {
		t.Fatalf("event not stamped: %+v", evs[0])
	}
}

func TestParseRules(t *testing.T) {
	doc := `{"rules":[
	  {"name":"p99","series":"udp_handle_latency_ns_p99","agg":"max","threshold":5e7,
	   "window":"1m","short_window":"10s","for":"10s"},
	  {"name":"chr","series":"cache_hit_ratio","op":"<","threshold":0.2,"window":30}
	]}`
	rules, err := ParseRules([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %+v", rules)
	}
	if rules[0].ShortWindow != Duration(10*time.Second) || rules[1].Window != Duration(30*time.Second) {
		t.Fatalf("durations parsed wrong: %+v", rules)
	}
	if rules[1].Op != "<" {
		t.Fatalf("op = %q", rules[1].Op)
	}

	for _, bad := range []string{
		`{"rules":[]}`,
		`{"rules":[{"series":"x"}]}`,
		`{"rules":[{"name":"a"}]}`,
		`{"rules":[{"name":"a","series":"x","agg":"p95"}]}`,
		`{"rules":[{"name":"a","series":"x","op":">="}]}`,
		`not json`,
	} {
		if _, err := ParseRules([]byte(bad)); err == nil {
			t.Errorf("ParseRules(%q) succeeded, want error", bad)
		}
	}

	// Bare-array form and round-trip through the Duration marshaller.
	arr, err := ParseRules([]byte(`[{"name":"a","series":"x","threshold":1,"window":"90s"}]`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(arr[0])
	if err != nil {
		t.Fatal(err)
	}
	var back Rule
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back.Window != Duration(90*time.Second) {
		t.Fatalf("round-trip window = %v", back.Window)
	}
}

func TestDefaultRulesValid(t *testing.T) {
	for _, r := range DefaultRules() {
		if err := r.validate(); err != nil {
			t.Errorf("default rule %q invalid: %v", r.Name, err)
		}
	}
}

func TestHandler(t *testing.T) {
	rule := Rule{Name: "g_high", Series: "g", Agg: "max", Threshold: 10, Window: Duration(2 * time.Second)}
	db := tsdb.New()
	e := NewEngine(db, []Rule{rule}, nil)
	feed(db, e, t0, 99)

	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/alerts", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Firing != 1 || len(st.Rules) != 1 || len(st.Transitions) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Rules[0].Instances[0].State != "firing" {
		t.Fatalf("instance = %+v", st.Rules[0].Instances[0])
	}
}
