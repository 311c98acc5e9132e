package sim

import (
	"fmt"
	"os"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/telemetry"
)

// MineWindow is the batch miner over one observation window (a collector's
// ByName view): train the classifier on the window's labeled zones, then
// run Algorithm 1 at threshold theta over the same window. With explain
// set, one provenance record per classifier decision is written to that
// path as JSON lines (.gz compresses); a non-nil obs receives the train
// and mine spans and the miner's metrics. It returns the classifier with
// the ranked findings.
func (e *Env) MineWindow(byName map[string][]*chrstat.RRStat, theta float64, explain string, obs *Obs) (*mlearn.DecisionTree, []core.Finding, error) {
	var (
		tracer *telemetry.Tracer
		reg    *telemetry.Registry
	)
	if obs != nil {
		tracer, reg = obs.Tracer, obs.Registry
	}
	span := tracer.Start("train")
	clf, examples, err := e.Train(byName, core.TrainingConfig{})
	if err != nil {
		return nil, nil, err
	}
	span.AddItems(int64(len(examples)))
	span.End()
	miner, err := core.NewMiner(clf, core.MinerConfig{Theta: theta})
	if err != nil {
		return nil, nil, err
	}
	miner.SetMetrics(reg)
	var (
		ew         *core.ExplainWriter
		explainErr error
	)
	if explain != "" {
		if ew, err = core.CreateExplain(explain); err != nil {
			return nil, nil, fmt.Errorf("explain: %w", err)
		}
		defer ew.Close()
		miner.SetExplain(func(rec core.ExplainRecord) {
			if err := ew.Record(rec); err != nil && explainErr == nil {
				explainErr = err
			}
		})
	}
	span = tracer.Start("mine")
	findings, err := miner.Mine(core.BuildTree(byName, e.Suffixes), byName)
	if err != nil {
		return nil, nil, fmt.Errorf("mine: %w", err)
	}
	span.AddItems(int64(len(findings)))
	span.End()
	if ew != nil {
		if explainErr == nil {
			explainErr = ew.Close()
		}
		if explainErr != nil {
			return nil, nil, fmt.Errorf("explain: %w", explainErr)
		}
		fmt.Fprintf(os.Stderr, "explain: wrote %d decision records to %s\n", ew.Count(), explain)
	}
	return clf, findings, nil
}
