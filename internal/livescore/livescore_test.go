package livescore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/qlog"
)

func newPrimedEngine(t testing.TB, findings ...core.Finding) *Engine {
	t.Helper()
	// A trivially fitted classifier (always benign) so engine re-scores
	// over staged names never error; verdicts come from Prime.
	clf := mlearn.NewDecisionTree(mlearn.TreeConfig{})
	x := make([][]float64, 4)
	y := make([]bool, 4)
	for i := range x {
		x[i] = make([]float64, 8)
	}
	y[0] = true
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Huge hysteresis: engine re-scores (which propose nothing for the
	// primed pairs) must not flip the primed verdicts away mid-test.
	pipe, err := core.NewStreamingPipeline(
		clf, core.MinerConfig{}, core.StreamingConfig{Hysteresis: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Prime(findings)
	return NewEngine(pipe)
}

func queryWire(t *testing.T, name string) []byte {
	t.Helper()
	wire, err := dnsmsg.NewQuery(0x1234, name, dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestScoreWireVerdicts(t *testing.T) {
	eng := newPrimedEngine(t, core.Finding{Zone: "api.example.com", Depth: 4, Confidence: 0.99})
	s := eng.NewScorer()
	cases := []struct {
		name string
		want qlog.Verdict
	}{
		{"tok1.api.example.com", qlog.VerdictDisposable},
		{"TOK2.API.Example.COM", qlog.VerdictDisposable}, // case-folded
		{"a.b.api.example.com", qlog.VerdictBenign},      // depth 5, zone flags 4
		{"api.example.com", qlog.VerdictBenign},          // the zone itself
		{"www.other.com", qlog.VerdictBenign},
	}
	for _, c := range cases {
		if got := s.ScoreWire(queryWire(t, c.name)); got != c.want {
			t.Errorf("ScoreWire(%s) = %v, want %v", c.name, got, c.want)
		}
	}

	// Unscoreable wires: runts, root queries, compression pointers.
	if got := s.ScoreWire([]byte{0, 1, 0, 0}); got != qlog.VerdictNone {
		t.Errorf("runt verdict = %v, want none", got)
	}
	root := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1}
	if got := s.ScoreWire(root); got != qlog.VerdictNone {
		t.Errorf("root-query verdict = %v, want none", got)
	}
	ptr := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1}
	if got := s.ScoreWire(ptr); got != qlog.VerdictNone {
		t.Errorf("compressed-question verdict = %v, want none", got)
	}
	truncated := queryWire(t, "cut.example.com")[:qnameOffset+3]
	if got := s.ScoreWire(truncated); got != qlog.VerdictNone {
		t.Errorf("truncated-name verdict = %v, want none", got)
	}
}

func TestScoreWireStagesNamesForMiner(t *testing.T) {
	eng := newPrimedEngine(t)
	s := eng.NewScorer()
	names := []string{"a.zone.test", "b.zone.test", "c.zone.test"}
	for _, n := range names {
		s.ScoreWire(queryWire(t, n))
		s.ScoreWire(queryWire(t, n)) // immediate repeat: staged once
	}
	if got := eng.Flush(); got != len(names) {
		t.Fatalf("Flush moved %d names, want %d", got, len(names))
	}
	h, err := eng.Pipeline().Rescore(time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != len(names) {
		t.Fatalf("re-score inserted %d names, want %d", res.Inserted, len(names))
	}
}

// TestScoreWireZeroAlloc is the serve-path gate at the unit level: scoring
// a query against a primed snapshot allocates nothing.
func TestScoreWireZeroAlloc(t *testing.T) {
	eng := newPrimedEngine(t, core.Finding{Zone: "api.example.com", Depth: 4, Confidence: 0.99})
	s := eng.NewScorer()
	hit := queryWire(t, "u8f3n1d0.api.example.com")
	miss := queryWire(t, "static.other.example.net")
	if got := testing.AllocsPerRun(200, func() {
		s.ScoreWire(hit)
		s.ScoreWire(miss)
	}); got != 0 {
		t.Errorf("ScoreWire allocates %.1f per run, want 0", got)
	}
}

// TestDrainSeenNameZeroAlloc: moving a name the window has already noted
// from a ring into the pipeline allocates nothing — only a name's first
// sighting in a window is copied. Otherwise what the serve path allocates
// depends on how many names a full ring dropped, which is to say on how the
// host scheduled the drain (serve-wire's allocs_per_query once moved 3 %
// from run to run for that reason alone).
func TestDrainSeenNameZeroAlloc(t *testing.T) {
	eng := newPrimedEngine(t)
	s := eng.NewScorer()
	// Long enough that a copy could not sit on the stack, and two of them,
	// or the scorer's own repeat filter stages nothing the second time.
	a := queryWire(t, "a-label-of-some-length.and-another-one.zone.test")
	b := queryWire(t, "b-label-of-some-length.and-another-one.zone.test")
	round := func() int {
		s.ScoreWire(a)
		s.ScoreWire(b)
		return eng.Flush()
	}
	if got := round(); got != 2 {
		t.Fatalf("fixture: Flush moved %d names, want 2", got)
	}
	moved := 0
	if got := testing.AllocsPerRun(200, func() { moved += round() }); got != 0 {
		t.Errorf("draining two names already noted allocates %.1f per run, want 0", got)
	}
	if moved != 2*201 { // AllocsPerRun warms up with one run of its own
		t.Errorf("fixture: %d names moved in 201 rounds, want 2 each", moved)
	}
}

// TestRingOverflowDrops fills a ring past capacity and checks pushes drop
// (counted) instead of blocking or wrapping.
func TestRingOverflowDrops(t *testing.T) {
	eng := newPrimedEngine(t)
	s := eng.NewScorer()
	for i := 0; i < ringSlots+10; i++ {
		s.ScoreWire(queryWire(t, fmt.Sprintf("n%d.overflow.test", i)))
	}
	if got := eng.Dropped(); got != 10 {
		t.Fatalf("dropped %d names, want 10", got)
	}
	if got := eng.Flush(); got != ringSlots {
		t.Fatalf("Flush moved %d names, want %d", got, ringSlots)
	}
}

// TestEngineConcurrentScoring runs several scorers against a live engine
// (drain + re-score) under the race detector.
func TestEngineConcurrentScoring(t *testing.T) {
	eng := newPrimedEngine(t, core.Finding{Zone: "sig.load.test", Depth: 4, Confidence: 0.9})
	eng.Start(5 * time.Millisecond)
	defer eng.Close()

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := eng.NewScorer()
			for i := 0; i < 500; i++ {
				name := fmt.Sprintf("q%d-w%d.sig.load.test", i, w)
				if got := s.ScoreWire(queryWire(t, name)); got != qlog.VerdictDisposable {
					t.Errorf("ScoreWire(%s) = %v, want disposable", name, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for eng.Pipeline().Windows() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if eng.Pipeline().Windows() == 0 {
		t.Fatal("engine never re-scored")
	}
	eng.Close()
	// Close waited for the window the loop last closed: it is counted.
	done := eng.Pipeline().Windows()
	if res, err := eng.last.Wait(); err != nil || res.Window != done {
		t.Errorf("after Close %d windows are mined, the last one started is %d (err %v)", done, res.Window, err)
	}
	if left := eng.Flush(); left != 0 {
		t.Errorf("%d names left in rings after Close", left)
	}
}
