package experiments

import (
	"reflect"
	"sort"
	"testing"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/workload"
)

// sortedSample returns vals sorted ascending, for multiset comparison.
func sortedSample(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// TestParallelDayMatchesSequential is the determinism contract of the
// per-server worker architecture: the same seeded day, run once through
// sequential Resolve and once through a resolver Stream, must leave every
// server's cache statistics bit-identical and produce identical CHR
// aggregates. Per-server streams are identical in both modes (clients pinned
// by hash plus per-server FIFO routing), so the only tolerated difference is
// WireBytesUp: zones with varying rdata mint answer strings from a global
// counter whose interleaving across servers is timing-dependent, and those
// strings' lengths vary.
func TestParallelDayMatchesSequential(t *testing.T) {
	scale := tinyScale()
	seqEnv, err := sim.NewEnv(scale)
	if err != nil {
		t.Fatal(err)
	}
	parEnv, err := sim.NewEnv(scale)
	if err != nil {
		t.Fatal(err)
	}
	profile := workload.DecemberProfile(dateAt(0))

	seqCol, err := seqEnv.RunDay(profile)
	if err != nil {
		t.Fatal(err)
	}
	parCol, err := parEnv.RunDay(profile, ingest.WithParallel())
	if err != nil {
		t.Fatal(err)
	}

	// Per-server cache stats: bit-identical, including eviction accounting.
	seqCache := seqEnv.Cluster.CacheStats()
	parCache := parEnv.Cluster.CacheStats()
	if len(seqCache) != len(parCache) {
		t.Fatalf("server counts differ: %d vs %d", len(seqCache), len(parCache))
	}
	for i := range seqCache {
		if !reflect.DeepEqual(seqCache[i], parCache[i]) {
			t.Errorf("server %d cache stats differ:\nseq: %+v\npar: %+v", i, seqCache[i], parCache[i])
		}
	}

	// Per-server resolver counters: identical except WireBytesUp.
	seqStats := seqEnv.Cluster.PerServerStats()
	parStats := parEnv.Cluster.PerServerStats()
	for i := range seqStats {
		a, b := seqStats[i], parStats[i]
		a.WireBytesUp, b.WireBytesUp = 0, 0
		if a != b {
			t.Errorf("server %d resolver stats differ:\nseq: %+v\npar: %+v", i, seqStats[i], parStats[i])
		}
	}

	// CHR aggregates: totals, distinct names/records, and the paper's
	// sampled distributions as multisets.
	sb, sa, sbnx, sanx := seqCol.Totals()
	pb, pa, pbnx, panx := parCol.Totals()
	if sb != pb || sa != pa || sbnx != pbnx || sanx != panx {
		t.Errorf("totals differ: seq (%d %d %d %d) vs par (%d %d %d %d)",
			sb, sa, sbnx, sanx, pb, pa, pbnx, panx)
	}
	if seqCol.NumRecords() != parCol.NumRecords() {
		t.Errorf("distinct records differ: %d vs %d", seqCol.NumRecords(), parCol.NumRecords())
	}
	if sq, _ := seqCol.QueriedNames(nil); sq != mustCount(parCol.QueriedNames(nil)) {
		t.Errorf("queried-name counts differ")
	}
	if sr, _ := seqCol.ResolvedNames(nil); sr != mustCount(parCol.ResolvedNames(nil)) {
		t.Errorf("resolved-name counts differ")
	}
	seqCHR := sortedSample(seqCol.CHRSample(nil, 0))
	parCHR := sortedSample(parCol.CHRSample(nil, 0))
	if !reflect.DeepEqual(seqCHR, parCHR) {
		t.Errorf("CHR samples differ: %d vs %d values", len(seqCHR), len(parCHR))
	}
	seqDHR := sortedSample(seqCol.DHRSample(nil))
	parDHR := sortedSample(parCol.DHRSample(nil))
	if !reflect.DeepEqual(seqDHR, parDHR) {
		t.Errorf("DHR samples differ: %d vs %d values", len(seqDHR), len(parDHR))
	}
	seqClients := sortedSample(seqCol.ClientCounts(nil))
	parClients := sortedSample(parCol.ClientCounts(nil))
	if !reflect.DeepEqual(seqClients, parClients) {
		t.Errorf("client-count samples differ")
	}
}

func mustCount(total, _ int) int { return total }

// TestResolveStreamConcurrentTaps drives a full workload day through a
// resolver Stream with every concurrent consumer attached at once — the
// sharded CHR collector on both sides, an hourly counter, and a pdns store —
// so `go test -race` exercises the worker/tap/accumulator interleavings.
func TestResolveStreamConcurrentTaps(t *testing.T) {
	env, err := sim.NewEnv(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	hourly := chrstat.NewHourlyCounter()
	hourly.AddSeries("all", func(resolver.Observation) bool { return true })
	store := pdns.NewStore()
	hourlyBelow, storeBelow := hourly.Tap(), store.Tap()
	both := resolver.TapFunc(func(ob resolver.Observation) {
		hourlyBelow.Observe(ob)
		storeBelow.Observe(ob)
	})
	collector, err := env.RunDay(workload.DecemberProfile(dateAt(0)),
		ingest.WithSinks(ingest.TapSink(both, hourly.Tap())), ingest.WithParallel())
	if err != nil {
		t.Fatal(err)
	}
	below, above, _, _ := collector.Totals()
	if below == 0 || above == 0 {
		t.Fatalf("no observations flowed: below=%d above=%d", below, above)
	}
	if store.Len() == 0 {
		t.Error("pdns store saw no records")
	}
	pts := hourly.Series("all")
	if len(pts) == 0 {
		t.Error("hourly counter saw no observations")
	}
	var hourlyTotal uint64
	for _, p := range pts {
		hourlyTotal += p.Volume
	}
	if hourlyTotal != below+above {
		t.Errorf("hourly total %d != below+above %d", hourlyTotal, below+above)
	}
}
