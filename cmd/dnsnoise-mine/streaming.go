package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/sim"
)

// streamingPass carries what the -window second pass needs to rebuild the
// exact same query stream the batch phase consumed — the world's scale and
// the stream's source — plus the incremental miner's settings.
type streamingPass struct {
	scale    sim.Scale
	source   sim.Source
	parallel bool

	clf         *mlearn.DecisionTree
	theta       float64
	window      time.Duration
	keepWindows int
	explain     string

	batchFindings []core.Finding
}

// run replays the stream through a StreamingPipeline: intake via the
// ingest sink seam, a re-score every p.window of simulated time, and an
// EndDay at every rotation. The batch phase already printed its report
// from the same events; this pass shows what the incremental miner would
// have said along the way, and — for single-day streams — checks the
// day-boundary verdicts reproduce the batch findings exactly.
//
// The world is rebuilt from the original scale, so the regenerated stream
// is bit-identical to the first pass; stdin traces cannot be re-read and
// are rejected up front.
func (p *streamingPass) run(stdout io.Writer) error {
	env, err := sim.NewEnv(p.scale)
	if err != nil {
		return fmt.Errorf("streaming: %w", err)
	}
	src, dayStart, err := p.source.Open(env)
	if err != nil {
		return err
	}
	defer src.Close()

	sp, err := core.NewStreamingPipeline(p.clf,
		core.MinerConfig{Theta: p.theta},
		core.StreamingConfig{KeepWindows: p.keepWindows, NumServers: p.scale.Servers}, nil)
	if err != nil {
		return err
	}
	var (
		drifts     int
		dayResults []core.RescoreResult
	)
	// Both callbacks run on the pipeline's re-score goroutine; what they
	// touch is read here only after Run, whose last hook, EndDay, joined it.
	sp.OnDrift(func(core.DriftEvent) { drifts++ })
	var ew *jsonl.Writer[core.ExplainRecord]
	if p.explain != "" {
		ew, err = jsonl.Create[core.ExplainRecord](p.explain)
		if err != nil {
			return fmt.Errorf("streaming explain: %w", err)
		}
		defer ew.Close()
		sp.SetExplain(func(rec core.ExplainRecord) { ew.Write(&rec) })
	}
	// The StreamingHooks cadence, unbundled so each day's RescoreResult is
	// kept for the equivalence check: sink intake, a re-score per elapsed
	// -window of simulated time, EndDay at rotation.
	opts := []ingest.Option{
		ingest.OnDayStart(dayStart),
		ingest.WithSinks(sp),
		ingest.WithWindowTicks(p.window, func(tk ingest.Tick) error {
			_, err := sp.Rescore(tk.Day)
			return err
		}),
		ingest.OnWindow(func(w ingest.Window) error {
			res, err := sp.EndDay(w.Date)
			if err == nil {
				dayResults = append(dayResults, res)
			}
			return err
		}),
	}
	if p.parallel {
		opts = append(opts, ingest.WithParallel())
	}
	if err := ingest.NewRunner(env.Cluster, opts...).Run(src); err != nil {
		return fmt.Errorf("streaming replay: %w", err)
	}
	if ew != nil {
		if err := ew.Close(); err != nil {
			return fmt.Errorf("streaming explain: %w", err)
		}
	}

	fmt.Fprintf(stdout, "\nstreaming: %d re-score windows over %d days (every %s, hysteresis %d), %d drift events, %d disposable pairs live\n",
		sp.Windows(), len(dayResults), p.window, core.DefaultHysteresis, drifts, len(sp.CurrentDisposable()))
	if p.keepWindows > 0 {
		var expired int
		for _, res := range dayResults {
			expired += res.Expired
		}
		fmt.Fprintf(stdout, "streaming: sliding horizon of %d windows, %d zone expiries\n",
			p.keepWindows, expired)
		// A finite horizon forgets evidence the batch miner keeps, so the
		// batch-equivalence contract below only holds for keep-windows 0.
		return nil
	}
	if len(dayResults) == 1 {
		// A single-day stream mines one day window, directly comparable to
		// the batch phase's single merged window.
		if reflect.DeepEqual(dayResults[0].Findings, p.batchFindings) {
			fmt.Fprintf(stdout, "streaming: day-boundary verdicts identical to batch miner (%d findings)\n",
				len(dayResults[0].Findings))
		} else {
			return fmt.Errorf("streaming: day-boundary verdicts diverge from batch (%d vs %d findings)",
				len(dayResults[0].Findings), len(p.batchFindings))
		}
	}
	return nil
}
