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
	clf := mlearn.NewDecisionTree()
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

// withCookieOPT is a query as dig sends it by default: with an EDNS0 OPT
// record advertising 1232 bytes and carrying an 8-byte client COOKIE.
func withCookieOPT(query []byte) []byte {
	query[11]++ // ARCOUNT
	return append(query, 0, 0, 41, 0x04, 0xd0, 0, 0, 0, 0, 0, 12, 0, 10, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8)
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
		if got := s.ScoreWire(withCookieOPT(queryWire(t, c.name))); got != c.want {
			t.Errorf("ScoreWire(%s with EDNS) = %v, want %v", c.name, got, c.want)
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
	truncated := queryWire(t, "cut.example.com")[:15] // header, then "\x03cu"
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
		s.ScoreWire(queryWire(t, n)) // a repeat: noted once a window
	}
	if got := rescore(t, eng); got != len(names) {
		t.Fatalf("re-score inserted %d names, want %d", got, len(names))
	}
}

// rescore closes the pipeline's window and returns how many new names the
// tree took in.
func rescore(t *testing.T, eng *Engine) int {
	t.Helper()
	h, err := eng.pipe.Rescore(time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res.Inserted
}

// TestScoreWireDropsNothing: every name one scorer scores reaches the
// miner, however many arrive between two re-scores.
func TestScoreWireDropsNothing(t *testing.T) {
	eng := newPrimedEngine(t)
	s := eng.NewScorer()
	const names = 1034
	for i := 0; i < names; i++ {
		s.ScoreWire(queryWire(t, fmt.Sprintf("n%d.burst.test", i)))
	}
	if got := rescore(t, eng); got != names {
		t.Fatalf("re-score inserted %d names, want %d", got, names)
	}
	if got := eng.Dropped(); got != 0 {
		t.Errorf("Dropped = %d, want 0", got)
	}
}

// TestScoreWireZeroAlloc is the serve-path gate at the unit level: scoring
// a query against a primed snapshot allocates nothing, dig's EDNS query
// included, and neither does noting a name the window has already noted —
// only a name's first sighting in a window is copied, so what the serve
// path allocates depends on the names that arrive, not on how often. The
// long name is past any small-string buffer the runtime could lend.
func TestScoreWireZeroAlloc(t *testing.T) {
	eng := newPrimedEngine(t, core.Finding{Zone: "api.example.com", Depth: 4, Confidence: 0.99})
	s := eng.NewScorer()
	hit := queryWire(t, "u8f3n1d0.api.example.com")
	miss := queryWire(t, "static.other.example.net")
	dig := withCookieOPT(queryWire(t, "0.0.0.0.1.0.0.4e.abc123.api.example.com"))
	long := queryWire(t, "a-label-of-some-length.and-another-label-of-length.zone.example.test")
	if got := testing.AllocsPerRun(200, func() {
		s.ScoreWire(hit)
		s.ScoreWire(miss)
		s.ScoreWire(dig)
		s.ScoreWire(long)
	}); got != 0 {
		t.Errorf("ScoreWire allocates %.1f per run, want 0", got)
	}
}

// TestEngineConcurrentScoring runs several scorers, each noting names into
// the pipeline, beside the engine's re-scores under the race detector.
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
	for eng.pipe.Windows() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if eng.pipe.Windows() == 0 {
		t.Fatal("engine never re-scored")
	}
	eng.Close()
	// Close waited for the window the loop last closed: it is counted.
	done := eng.pipe.Windows()
	if res, err := eng.last.Wait(); err != nil || res.Window != done {
		t.Errorf("after Close %d windows are mined, the last one started is %d (err %v)", done, res.Window, err)
	}
}
