package main

import (
	"fmt"
	"testing"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/core"
	"dnsnoise/internal/features"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/workload"
)

// benign is a classifier that never flags a group: the bound below is on
// what the miner holds, whatever it decides.
type benign struct{}

func (benign) Fit([][]float64, []bool) error          { return nil }
func (benign) PredictProb([]float64) (float64, error) { return 0, nil }

// TestServeMinerHoldsAHorizon: -score's live miner, built with the
// configuration buildScoring uses and fed fresh names every window as a
// random-subdomain flood would be, never holds more than serveHorizon
// windows of them, over three horizons of windows.
func TestServeMinerHoldsAHorizon(t *testing.T) {
	pipe, err := core.NewStreamingPipeline(benign{},
		core.MinerConfig{Theta: 0.9, FeatureMask: features.TreeStructureIdx}, serveStreaming, nil)
	if err != nil {
		t.Fatal(err)
	}
	const perWindow = 500
	now := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	held, peak := 0, 0
	for w := 0; w < 3*serveHorizon; w++ {
		for i := 0; i < perWindow; i++ {
			pipe.ObserveName(fmt.Appendf(nil, "w%d-%d.flood%d.example.com", w, i, i%10))
		}
		h, err := pipe.Rescore(now)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Inserted != perWindow {
			t.Fatalf("window %d: %d names inserted, want %d", w+1, res.Inserted, perWindow)
		}
		held += res.Inserted - res.Expired
		peak = max(peak, held)
		if held > serveHorizon*perWindow {
			t.Fatalf("window %d: the miner holds %d names, more than %d windows of %d",
				w+1, held, serveHorizon, perWindow)
		}
	}
	if peak != serveHorizon*perWindow {
		t.Errorf("the miner held at most %d names, want the horizon's %d", peak, serveHorizon*perWindow)
	}
}

// TestServeHorizonKeepsDetection: on a simulated day whose 8 h horizon span
// (re-scores every hour) holds tens of thousands of queries, the live
// miner as buildScoring configures it flags nearly as many of the day's
// disposable queries as the same miner with no horizon, and no more of the
// others. The share the listeners would score disposable is what is
// compared: it is what -score reports.
func TestServeHorizonKeepsDetection(t *testing.T) {
	env, err := sim.NewNamespace(serveScale())
	if err != nil {
		t.Fatal(err)
	}
	m, err := trainServeMiner(env, 0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	unbounded := serveStreaming
	unbounded.KeepWindows = 0
	day := nextDay(t, env)
	rates := replayServeDay(t, m, day, time.Hour, serveStreaming, unbounded)
	horizon, all := rates[0], rates[1]
	t.Logf("%d queries: disposable ones flagged %.3f (no horizon %.3f), others flagged %.4f (no horizon %.4f)",
		len(day), horizon.caught, all.caught, horizon.falsePos, all.falsePos)
	if horizon.caught < 0.9*all.caught {
		t.Errorf("with the horizon the verdicts flag %.3f of the disposable queries, under 90%% of the %.3f they flag without it",
			horizon.caught, all.caught)
	}
	if horizon.falsePos > all.falsePos+0.005 {
		t.Errorf("with the horizon the verdicts flag %.4f of the other queries, more than the %.4f without it",
			horizon.falsePos, all.falsePos)
	}
}

// nextDay generates the December day after the training day on env's
// generator.
func nextDay(t *testing.T, env *sim.Env) []resolver.Query {
	profiles, err := workload.SelectProfiles("december", 2)
	if err != nil {
		t.Fatal(err)
	}
	var day []resolver.Query
	stream := env.Generator.StartDay(profiles[1])
	for q, ok := stream.Next(); ok; q, ok = stream.Next() {
		day = append(day, q)
	}
	return day
}

// verdictRates is how a live miner's verdicts scored one replayed day.
type verdictRates struct {
	caught   float64 // share of the disposable queries scored disposable
	falsePos float64 // share of the other queries scored disposable
}

// replayServeDay drives one live miner per configuration, each built and
// primed from m, through day as the serve path drives it: every query name
// is scored against the published snapshot and then noted, and the miner
// re-scores at every window boundary of the day's time. Ground truth is the
// generator's category for the query.
func replayServeDay(t *testing.T, m serveMiner, day []resolver.Query, window time.Duration, cfgs ...core.StreamingConfig) []verdictRates {
	pipes := make([]*core.StreamingPipeline, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if pipes[i], err = core.NewStreamingPipeline(m.clf, m.mcfg, cfg, nil); err != nil {
			t.Fatal(err)
		}
		pipes[i].Prime(m.findings)
	}
	rescore := func(end time.Time) {
		for _, p := range pipes {
			h, err := p.Rescore(end)
			if err == nil {
				_, err = h.Wait()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	flagged := make([][2]int, len(cfgs)) // [other, disposable]
	var total [2]int
	end := day[0].Time.Truncate(window).Add(window)
	for _, q := range day {
		for !q.Time.Before(end) {
			rescore(end)
			end = end.Add(window)
		}
		disposable := 0
		if q.Category == cache.CategoryDisposable {
			disposable = 1
		}
		total[disposable]++
		for i, p := range pipes {
			if core.Flagged(p.Snapshot(), q.Name) {
				flagged[i][disposable]++
			}
			p.ObserveName([]byte(q.Name))
		}
	}
	rescore(end)
	rates := make([]verdictRates, len(cfgs))
	for i, f := range flagged {
		rates[i] = verdictRates{
			caught:   float64(f[1]) / float64(total[1]),
			falsePos: float64(f[0]) / float64(total[0]),
		}
	}
	return rates
}
