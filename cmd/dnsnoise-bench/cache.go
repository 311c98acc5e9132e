package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/telemetry"
)

// cachePolicyCell is one (policy, capacity) cell of the cache-matrix
// scenario: the slab cache driven directly — no resolver, no upstream — so
// the numbers isolate the eviction policy and the timer wheel at capacity
// scale. The same deterministic workload runs in every cell, so differences
// between rows are attributable to the policy and capacity alone.
type cachePolicyCell struct {
	Policy   string  `json:"policy"`
	Capacity int     `json:"capacity"`
	Events   int     `json:"events"`
	HitRate  float64 `json:"chr"`
	// PrematureEvictionRate is live victims per policy eviction opportunity:
	// evictions / (evictions + reclaims) — how often capacity had to kill a
	// live entry instead of the wheel harvesting a dead one.
	PrematureEvictionRate float64 `json:"premature_eviction_rate"`
	// DisposableVictimShare is the fraction of premature evictions whose
	// victim was a disposable-tagged entry — high is good, the policy is
	// sacrificing one-shot entries instead of the hot set.
	DisposableVictimShare float64 `json:"disposable_victim_share"`
	WheelReclaims         uint64  `json:"wheel_reclaims"`
	NsPerOp               float64 `json:"ns_per_op"`
	OpsPerSec             float64 `json:"ops_per_sec"`
	// BytesPerEntry is the cache's whole retained footprint (slab, index,
	// order arena, wheel links) divided by resident entries, measured after
	// a GC with the key strings pre-allocated outside the measurement.
	BytesPerEntry  float64 `json:"bytes_per_entry"`
	HitAllocsPerOp float64 `json:"hit_allocs_per_op"`
}

// parseCapacities parses the -cache-capacities CSV.
func parseCapacities(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cache-capacities: bad capacity %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-cache-capacities: no capacities")
	}
	return out, nil
}

// cacheBenchValue stands in for a compact cache payload (a resolver
// cacheValue is a couple of words plus the shared RR slice header).
type cacheBenchValue struct{ a, b uint64 }

// benchCacheCell runs the deterministic mixed workload against one cache
// instance. The mix: two thirds of events re-reference a hot set (TTL
// 10 min — live for the whole run), one third are one-shot disposable
// names (TTL 5 s — dead and wheel-reclaimable within the run). Simulated
// time advances one second every thousand events and every operation calls
// Advance first, exactly like the resolver's serve path. The hot set is
// sized from the event budget (capped at the capacity), so the sweep
// crosses the interesting regimes: capacities below the hot set thrash and
// the policies fight over which live entry to sacrifice, while capacities
// above it evict only when live one-shots overflow — and the timer wheel
// races the policy to harvest them dead first.
func benchCacheCell(kind cache.PolicyKind, capacity, events int) cachePolicyCell {
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	hotN := events / 8
	if hotN < 1024 {
		hotN = 1024
	}
	if hotN > capacity {
		hotN = capacity
	}
	// Pre-generate every key string so the heap-footprint reading below
	// sees only the cache's own structures.
	hot := make([]string, hotN)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot%d.bench.test", i)
	}
	oneShot := make([]string, (events+2)/3)
	for i := range oneShot {
		oneShot[i] = fmt.Sprintf("disp%d.bench.test", i)
	}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c := cache.New[string, cacheBenchValue](capacity, kind)

	var (
		shots int
		now   = t0
		v     = cacheBenchValue{1, 2}
	)
	start := time.Now()
	for i := 0; i < events; i++ {
		if i%1000 == 0 {
			now = t0.Add(time.Duration(i/1000) * time.Second)
		}
		c.Advance(now)
		if i%3 == 2 {
			// One-shot disposable: always a miss, inserted dead-end.
			c.Put(oneShot[shots], v, 5*time.Second, cache.CategoryDisposable, now)
			shots++
			continue
		}
		// Hot reference, index decorrelated from insertion order.
		name := hot[(uint64(i)*2654435761)%uint64(hotN)]
		if _, ok := c.Get(name, now); !ok {
			c.Put(name, v, 10*time.Minute, cache.CategoryOther, now)
		}
	}
	elapsed := time.Since(start)

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	// Steady-state hit cost: a resident long-TTL key resolved with the same
	// Advance-then-Get shape as the timed loop. This is the per-policy
	// zero-allocation contract the -max-hit-allocs gate enforces.
	sentinel := "sentinel.bench.test"
	c.Put(sentinel, v, time.Hour, cache.CategoryOther, now)
	hitAllocs := testing.AllocsPerRun(1000, func() {
		c.Advance(now)
		if _, ok := c.Get(sentinel, now); !ok {
			panic("sentinel evicted during alloc measurement")
		}
	})

	st := c.Stats()
	var premAll, premDisp uint64
	for victim := 0; victim < 2; victim++ {
		for inserter := 0; inserter < 2; inserter++ {
			premAll += st.PrematureEvictions[victim][inserter]
		}
	}
	premDisp = st.PrematureEvictions[cache.CategoryDisposable][cache.CategoryOther] +
		st.PrematureEvictions[cache.CategoryDisposable][cache.CategoryDisposable]

	cell := cachePolicyCell{
		Policy:         kind.String(),
		Capacity:       capacity,
		Events:         events,
		HitRate:        st.HitRate(),
		WheelReclaims:  st.Reclaims,
		NsPerOp:        float64(elapsed.Nanoseconds()) / float64(events),
		HitAllocsPerOp: hitAllocs,
	}
	if turns := st.Evictions + st.Reclaims; turns > 0 {
		cell.PrematureEvictionRate = float64(st.Evictions) / float64(turns)
	}
	if premAll > 0 {
		cell.DisposableVictimShare = float64(premDisp) / float64(premAll)
	}
	if cell.NsPerOp > 0 {
		cell.OpsPerSec = 1e9 / cell.NsPerOp
	}
	if n := c.Len(); n > 0 && m1.HeapAlloc > m0.HeapAlloc {
		cell.BytesPerEntry = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(n)
	}
	return cell
}

// benchCacheMatrix sweeps every eviction policy across the capacity list.
func benchCacheMatrix(capacities []int, events int) []cachePolicyCell {
	var cells []cachePolicyCell
	for _, capacity := range capacities {
		for _, kind := range cache.Policies() {
			cells = append(cells, benchCacheCell(kind, capacity, events))
		}
	}
	return cells
}

// printCacheMatrix renders the matrix on the stdout summary.
func printCacheMatrix(cells []cachePolicyCell) {
	for _, c := range cells {
		fmt.Printf("cache %7d %-5s %8.1f ns/op (%.1fM ops/s), chr %5.1f%%, premature %5.1f%% (disp share %5.1f%%), reclaims %d, %.0f B/entry, %.2f hit allocs\n",
			c.Capacity, c.Policy, c.NsPerOp, c.OpsPerSec/1e6, 100*c.HitRate,
			100*c.PrematureEvictionRate, 100*c.DisposableVictimShare,
			c.WheelReclaims, c.BytesPerEntry, c.HitAllocsPerOp)
	}
}

// checkCacheAllocGate enforces -max-hit-allocs on every cell of the matrix:
// the zero-allocation steady-state contract holds under every policy, not
// just the default.
func checkCacheAllocGate(cells []cachePolicyCell, maxHitAllocs int64) error {
	if maxHitAllocs < 0 {
		return nil
	}
	for _, c := range cells {
		if int64(c.HitAllocsPerOp) > maxHitAllocs {
			return fmt.Errorf("cache hit path allocates %.2f allocs/op under %s at capacity %d, -max-hit-allocs is %d",
				c.HitAllocsPerOp, c.Policy, c.Capacity, maxHitAllocs)
		}
	}
	return nil
}

// runCacheOnly is the -only cache mode: just the policy × capacity matrix
// and its per-policy allocation gate, sized for CI smoke via -cache-events.
func runCacheOnly(args []string, out string, capacities []int, events int, maxHitAllocs int64) error {
	tracer := telemetry.NewTracer()
	span := tracer.Start("cache-matrix")
	cells := benchCacheMatrix(capacities, events)
	span.End()

	rep := report{RunReport: *telemetry.NewRunReport("dnsnoise-bench", args)}
	rep.Queries = events
	rep.CacheMatrix = cells
	rep.Start = tracer.Roots()[0].Start
	rep.Finish(nil, tracer)

	if err := rep.write(out, func() { printCacheMatrix(cells) }); err != nil {
		return err
	}
	return checkCacheAllocGate(cells, maxHitAllocs)
}
