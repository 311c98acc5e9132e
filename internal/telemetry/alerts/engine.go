package alerts

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"dnsnoise/internal/qlog"
	"dnsnoise/internal/telemetry/tsdb"
)

// State is one alert instance's position in the lifecycle.
type State uint8

const (
	StateInactive State = iota
	StatePending
	StateFiring
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	default:
		return "inactive"
	}
}

// Transition is one recorded state change. To is the state entered, except
// that leaving firing is recorded as "resolved" (the state itself returns
// to inactive).
type Transition struct {
	Rule   string    `json:"rule"`
	Series string    `json:"series"`
	From   string    `json:"from"`
	To     string    `json:"to"`
	Time   time.Time `json:"ts"`
	Value  float64   `json:"value"`
}

// instance is the per-(rule, series) state machine.
type instance struct {
	state State
	since time.Time // when the current state was entered
	value float64   // last evaluated long-window value
	seen  time.Time // last eval that had data for this series
}

// transitionRing is how many recent transitions /debug/alerts exposes.
const transitionRing = 256

// Engine evaluates rules against a tsdb on every sweep. All methods are
// safe for concurrent use; Eval is expected from the sweep goroutine.
type Engine struct {
	db    *tsdb.DB
	rules []Rule
	log   *qlog.Log

	mu    sync.Mutex
	insts map[string]map[string]*instance // rule name -> series -> state
	hist  []Transition
	histN int // total transitions ever; ring position is histN % transitionRing
	evals uint64
}

// NewEngine builds an engine over db. Every transition mirrors into log
// (nil for none) as a synthetic qlog event (Qtype "ALERT", Name
// "<rule>.<to>.alert") via EmitNow. Invalid rules are rejected by
// ParseRules before they get here; NewEngine trusts its input.
func NewEngine(db *tsdb.DB, rules []Rule, log *qlog.Log) *Engine {
	return &Engine{db: db, rules: rules, log: log, insts: make(map[string]map[string]*instance)}
}

// Eval runs every rule once against the tsdb at time now. A violation must
// hold in both the long window and (if configured) the short window —
// the two-window burn-rate form — to advance the state machine.
func (e *Engine) Eval(now time.Time) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evals++
	for _, rule := range e.rules {
		long := e.windowValues(rule, now, rule.window())
		short := long
		if rule.ShortWindow > 0 {
			short = e.windowValues(rule, now, time.Duration(rule.ShortWindow))
		}
		insts := e.insts[rule.Name]
		if insts == nil {
			insts = make(map[string]*instance)
			e.insts[rule.Name] = insts
		}
		for series, v := range long {
			inst := insts[series]
			if inst == nil {
				inst = &instance{since: now}
				insts[series] = inst
			}
			viol := rule.violates(v)
			if viol && rule.ShortWindow > 0 {
				sv, ok := short[series]
				viol = ok && rule.violates(sv)
			}
			inst.value = v
			inst.seen = now
			e.step(rule, series, inst, viol, v, now)
		}
		// Series that stopped reporting (no data in the window) count as
		// recovered: pending clears, firing resolves.
		for series, inst := range insts {
			if _, ok := long[series]; !ok {
				e.step(rule, series, inst, false, inst.value, now)
			}
		}
	}
}

// step advances one instance's state machine and records transitions.
// Caller holds e.mu.
func (e *Engine) step(rule Rule, series string, inst *instance, viol bool, v float64, now time.Time) {
	switch inst.state {
	case StateInactive:
		if !viol {
			return
		}
		if rule.For <= 0 {
			e.transition(rule, series, inst, StateFiring, "firing", v, now)
			return
		}
		e.transition(rule, series, inst, StatePending, "pending", v, now)
	case StatePending:
		if !viol {
			e.transition(rule, series, inst, StateInactive, "inactive", v, now)
			return
		}
		if now.Sub(inst.since) >= time.Duration(rule.For) {
			e.transition(rule, series, inst, StateFiring, "firing", v, now)
		}
	case StateFiring:
		if !viol {
			e.transition(rule, series, inst, StateInactive, "resolved", v, now)
		}
	}
}

// transition moves inst to next, records it in the ring, and mirrors it.
// Caller holds e.mu.
func (e *Engine) transition(rule Rule, series string, inst *instance, next State, label string, v float64, now time.Time) {
	tr := Transition{Rule: rule.Name, Series: series, From: inst.state.String(), To: label, Time: now, Value: v}
	inst.state = next
	inst.since = now
	if e.hist == nil {
		e.hist = make([]Transition, 0, transitionRing)
	}
	if len(e.hist) < transitionRing {
		e.hist = append(e.hist, tr)
	} else {
		e.hist[e.histN%transitionRing] = tr
	}
	e.histN++
	if e.log != nil {
		lat := uint64(0)
		if v > 0 {
			lat = uint64(v)
		}
		e.log.EmitNow(qlog.Event{
			Time:      now,
			Server:    -1, // not a resolver worker
			Name:      rule.Name + "." + label + ".alert",
			Qtype:     "ALERT",
			LatencyNs: lat,
		})
	}
}

// windowValues aggregates the rule's series over the trailing window ending
// at now, returning the latest aggregated point per matched series. Caller
// holds e.mu (the tsdb has its own lock; e.mu only orders evals).
func (e *Engine) windowValues(rule Rule, now time.Time, window time.Duration) map[string]float64 {
	agg, _ := tsdb.ParseAgg(rule.Agg)
	res := e.db.Query(rule.Series, agg, tsdb.Options{
		Start: now.Add(-window), End: now, Step: window,
	})
	out := make(map[string]float64, len(res))
	for _, r := range res {
		if len(r.Points) > 0 {
			out[r.Name] = r.Points[len(r.Points)-1].V
		}
	}
	return out
}

// InstanceStatus is one (rule, series) state for JSON export.
type InstanceStatus struct {
	Series string    `json:"series"`
	State  string    `json:"state"`
	Since  time.Time `json:"since"`
	Value  float64   `json:"value"`
}

// RuleStatus is one rule plus its live instances.
type RuleStatus struct {
	Rule
	Instances []InstanceStatus `json:"instances,omitempty"`
}

// Status is the full /debug/alerts document.
type Status struct {
	Firing      int          `json:"firing"`
	Pending     int          `json:"pending"`
	Evals       uint64       `json:"evals"`
	Rules       []RuleStatus `json:"rules"`
	Transitions []Transition `json:"transitions,omitempty"`
}

// Snapshot assembles the current alert status, transitions oldest first.
func (e *Engine) Snapshot() Status {
	if e == nil {
		return Status{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{Evals: e.evals}
	for _, rule := range e.rules {
		rs := RuleStatus{Rule: rule}
		insts := e.insts[rule.Name]
		for _, series := range sortedInstKeys(insts) {
			inst := insts[series]
			rs.Instances = append(rs.Instances, InstanceStatus{
				Series: series, State: inst.state.String(), Since: inst.since, Value: inst.value,
			})
			switch inst.state {
			case StateFiring:
				st.Firing++
			case StatePending:
				st.Pending++
			}
		}
		st.Rules = append(st.Rules, rs)
	}
	if e.histN <= transitionRing {
		st.Transitions = append(st.Transitions, e.hist...)
	} else {
		at := e.histN % transitionRing
		st.Transitions = append(st.Transitions, e.hist[at:]...)
		st.Transitions = append(st.Transitions, e.hist[:at]...)
	}
	return st
}

// Handler serves the alert status as JSON (mounted at /debug/alerts).
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e == nil {
			http.Error(w, "alerts disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(e.Snapshot())
	})
}

func sortedInstKeys(m map[string]*instance) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
