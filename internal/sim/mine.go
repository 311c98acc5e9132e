package sim

import (
	"fmt"
	"os"
	"strings"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/jsonl"
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
	var ew *jsonl.Writer[core.ExplainRecord]
	if explain != "" {
		if ew, err = jsonl.Create[core.ExplainRecord](explain); err != nil {
			return nil, nil, fmt.Errorf("explain: %w", err)
		}
		defer ew.Close()
		miner.SetExplain(func(rec core.ExplainRecord) { ew.Write(&rec) })
	}
	span = tracer.Start("mine")
	findings, err := miner.Mine(core.BuildTree(byName, e.Suffixes), byName)
	if err != nil {
		return nil, nil, fmt.Errorf("mine: %w", err)
	}
	span.AddItems(int64(len(findings)))
	span.End()
	if ew != nil {
		if err := ew.Close(); err != nil {
			return nil, nil, fmt.Errorf("explain: %w", err)
		}
		fmt.Fprintf(os.Stderr, "explain: wrote %d decision records to %s\n", ew.Count(), explain)
	}
	return clf, findings, nil
}

// TruthMatcher builds an O(labels) ground-truth predicate: a name is
// disposable when any of its parent zones carries a disposable label.
func TruthMatcher(gt map[string]bool) func(string) bool {
	disp := make(map[string]struct{}, len(gt))
	for zone, d := range gt {
		if d {
			disp[zone] = struct{}{}
		}
	}
	return func(name string) bool {
		for probe := name; probe != ""; {
			if _, ok := disp[probe]; ok {
				return true
			}
			dot := strings.IndexByte(probe, '.')
			if dot < 0 {
				break
			}
			probe = probe[dot+1:]
		}
		return false
	}
}
