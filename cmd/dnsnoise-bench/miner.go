// The miner-overhead scenario prices the streaming miner's intake on the
// resolve path: what feeding a core.StreamingPipeline through the ingest
// sink seam adds on top of the batch pipeline's own observation taps.
package main

import (
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/features"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/resolver"
)

// benchPipeline builds a StreamingPipeline with a trivially fitted
// classifier. Only the observe-side intake runs during timed segments —
// re-scoring happens at stream barriers, never per query — so the
// classifier's quality is irrelevant here.
func benchPipeline(servers int) (*core.StreamingPipeline, error) {
	clf := mlearn.NewDecisionTree(mlearn.TreeConfig{})
	x := make([][]float64, 4)
	for i := range x {
		x[i] = make([]float64, features.Dim)
	}
	y := make([]bool, 4)
	y[0] = true
	if err := clf.Fit(x, y); err != nil {
		return nil, err
	}
	return core.NewStreamingPipeline(clf, core.MinerConfig{},
		core.StreamingConfig{NumServers: servers}, nil)
}

// benchMinerOverhead compares the batch miner's per-query cost against
// the streaming miner's: both sides resolve the day with a chrstat
// collector on the cluster taps (what every dnsnoise-mine run pays), and
// the instrumented side additionally forwards each observation into a
// StreamingPipeline, whose intake is a second, sharded CHR collector that
// lists the records it touches. The control pair is collector-vs-collector,
// so NoisePct calibrates the gate against tap-path jitter rather than the
// bare resolve loop. A second collector is not near-zero-cost by design; the
// -max-miner-overhead default leaves headroom over it and exists to catch
// pathological regressions (accidental O(n) scans, lock convoys), not drift.
func benchMinerOverhead(servers int, qs []resolver.Query) (overheadResult, error) {
	base := func() (*resolver.Cluster, error) {
		c, err := newCluster(servers)
		if err != nil {
			return nil, err
		}
		col := chrstat.NewCollector()
		c.SetTaps(col.BelowTap(), col.AboveTap())
		return c, nil
	}
	withMiner := func() (*resolver.Cluster, error) {
		c, err := newCluster(servers)
		if err != nil {
			return nil, err
		}
		sp, err := benchPipeline(servers)
		if err != nil {
			return nil, err
		}
		col := chrstat.NewCollector()
		below, above := col.BelowTap(), col.AboveTap()
		c.SetTaps(
			resolver.TapFunc(func(ob resolver.Observation) {
				below.Observe(ob)
				sp.ObserveBelow(ob)
			}),
			resolver.TapFunc(func(ob resolver.Observation) {
				above.Observe(ob)
				sp.ObserveAbove(ob)
			}),
		)
		return c, nil
	}
	return benchPairedOverhead(qs, base, withMiner)
}
