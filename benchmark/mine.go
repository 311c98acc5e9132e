package main

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/dntree"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/workload"
)

// mine-stream is dnsnoise-mine -live -window 1h with the batch miner
// beside it: a classifier trained on the warm-up day, then every day's
// answers fed to the streaming miner (intake on the tap, a re-score per
// simulated hour, EndDay at the boundary) and the day's collector mined
// again by the batch pipeline. It is ingest.StreamingHooks and
// ingest.PipelineHook written out so that each day's two finding sets can
// be compared: the streaming miner promises the batch miner's findings at
// every day boundary. core, dntree, features, mlearn and chrstat do most
// of the work; the resolver is sim-day's.

const (
	mineTheta     = 0.9
	mineWindow    = time.Hour
	mineNegatives = 401 // the paper's labelled non-disposable set
)

func mineSpec(smoke bool) simSpec {
	spec := simDaySpec(smoke)
	spec.events = 25_000
	if smoke {
		spec.events = 10_000
	}
	return spec
}

type mine struct {
	*simFixture
	miner *core.Miner

	trainMs  float64
	drifts   int
	findings []int // per measured day
	// mismatched collects the queries of days whose streaming findings
	// differed from the batch miner's.
	mismatched int
	last       []core.Finding
}

func setupMine(cfg config, tr *tracer) (instance, error) {
	fx, err := newSimFixture(mineSpec(cfg.smoke), cfg, tr)
	if err != nil {
		return nil, err
	}
	w := &mine{simFixture: fx}
	fx.setSource(ingest.NewGeneratorSource(fx.gen, fx.profiles(maxDays)...))
	win, err := fx.warm(nil)
	if err != nil {
		return nil, err
	}

	trainStart := time.Now()
	byName := win.Collector.ByName()
	tree := core.BuildTree(byName, nil)
	examples := core.BuildTrainingSet(tree, byName, fx.reg.TrainingLabels(mineNegatives), core.TrainingConfig{})
	clf, err := core.TrainClassifier(examples, core.TrainingConfig{})
	if err != nil {
		return nil, fmt.Errorf("train on the warm-up day: %w", err)
	}
	w.trainMs = float64(time.Since(trainStart)) / float64(time.Millisecond)

	mcfg := core.MinerConfig{Theta: mineTheta}
	if w.miner, err = core.NewMiner(clf, mcfg); err != nil {
		return nil, err
	}
	batch, err := core.NewPipeline(w.miner, nil)
	if err != nil {
		return nil, err
	}
	// KeepWindows 0: no expiry, the mode in which the day-boundary
	// findings must equal the batch miner's.
	stream, err := core.NewStreamingPipeline(clf, mcfg,
		core.StreamingConfig{Hysteresis: core.DefaultHysteresis, NumServers: simServers}, nil)
	if err != nil {
		return nil, err
	}
	stream.OnDrift(func(core.DriftEvent) { w.drifts++ })

	var streamed []core.Finding
	fx.hooks = []ingest.Option{
		ingest.WithSinks(wrapSink(tr, "sink.core", stream)),
		ingest.WithWindowTicks(mineWindow, wrapHook(tr, "rescore", func(tk ingest.Tick) error {
			_, err := stream.Rescore(tk.Day)
			return err
		})),
		ingest.OnWindow(wrapHook(tr, "endday", func(win ingest.Window) error {
			res, err := stream.EndDay(win.Date)
			streamed = res.Findings
			return err
		})),
		ingest.OnWindow(wrapHook(tr, "batchday", func(win ingest.Window) error {
			mined, err := batch.ProcessDay(win.Date, win.Collector.ByName())
			if err != nil {
				return err
			}
			// Compared here and dropped, so that no day's name lists
			// outlive it and count as the product's live heap; the
			// comparison is well under a thousandth of a day's work.
			if !reflect.DeepEqual(streamed, mined) {
				fmt.Fprintf(fx.log, "%s: streaming miner found %d zones, batch miner %d\n",
					win.Date.Format("2006-01-02"), len(streamed), len(mined))
				w.mismatched += win.Queries
			}
			w.findings = append(w.findings, len(mined))
			w.last = mined
			return nil
		})),
	}
	return w, nil
}

func (w *mine) run(m *meter) error {
	w.findings, w.mismatched = w.findings[:0], 0
	return w.simFixture.run(m)
}

func (w *mine) verify(m *meter) (int, uint64) {
	failed, digest := w.simFixture.verify(m, func(d int) []int { return w.findings[d : d+1] })
	return failed + w.mismatched, digest
}

func (w *mine) layers(out map[string]float64) error {
	if err := w.simFixture.layers(out); err != nil {
		return err
	}
	tr := w.tr
	out["core.intake_ns"], _ = tr.meanNs("sink.core")
	rescores := tr.durationsMs("rescore")
	out["core.rescore_ms_p50"] = median(rescores)
	out["core.rescore_ms_max"] = percentile(rescores, 100)
	out["core.endday_ms"] = median(tr.durationsMs("endday"))
	out["core.batch_day_ms"] = median(tr.durationsMs("batchday"))
	out["core.train_ms"] = w.trainMs
	out["core.drifts"] = float64(w.drifts)
	total := 0
	for _, n := range w.findings {
		total += n
	}
	out["core.findings_per_day"] = float64(total) / float64(len(w.findings))
	out["core.tpr"], out["core.fpr"] = zoneRates(w.last, w.reg)

	// The batch miner's two steps on the last day's collector.
	byName := w.lastWindow.Collector.ByName()
	out["core.buildtree_ms"], out["core.mine_ms"] = minePass(tr, w.miner, byName)
	return nil
}

// minePass times BuildTree and Mine over one day's statistics and returns
// both in milliseconds.
func minePass(tr *tracer, miner *core.Miner, byName map[string][]*chrstat.RRStat) (buildMs, mineMs float64) {
	var tree *dntree.Tree
	buildMs = tr.pass("pass.core.buildtree", 1, func() { tree = core.BuildTree(byName, nil) }) / 1e6
	mineMs = tr.pass("pass.core.mine", 1, func() {
		// The hooks above mined this same input without error.
		_, _ = miner.Mine(tree, byName)
	}) / 1e6
	return buildMs, mineMs
}

// zoneRates scores findings against the registry's ground truth, zone by
// zone: a zone counts as flagged when any finding's member name lies under
// it. It returns the share of disposable zones flagged and the share of
// non-disposable zones flagged.
func zoneRates(findings []core.Finding, reg *workload.Registry) (tpr, fpr float64) {
	truth := reg.GroundTruth()
	flagged := make(map[string]bool)
	for _, f := range findings {
		for _, name := range f.Names {
			for probe := name; probe != ""; {
				if _, ok := truth[probe]; ok {
					flagged[probe] = true
					break
				}
				dot := strings.IndexByte(probe, '.')
				if dot < 0 {
					break
				}
				probe = probe[dot+1:]
			}
		}
	}
	var tp, pos, fp, neg float64
	for zone, disposable := range truth {
		switch {
		case disposable:
			pos++
			if flagged[zone] {
				tp++
			}
		default:
			neg++
			if flagged[zone] {
				fp++
			}
		}
	}
	if pos > 0 {
		tpr = tp / pos
	}
	if neg > 0 {
		fpr = fp / neg
	}
	return tpr, fpr
}
