// Command dnsnoise-bench measures resolver cluster throughput — the same
// query stream resolved sequentially and through the per-server worker
// goroutines — plus the ingest sources' event throughput (live generation
// versus trace replay, plain and gzip), and writes the results to a JSON
// file so successive commits have a comparable perf trajectory.
//
// Usage:
//
//	dnsnoise-bench                        # writes BENCH_resolver.json
//	dnsnoise-bench -out bench.json -servers 8 -queries 200000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/traceio"
	"dnsnoise/internal/udptransport"
	"dnsnoise/internal/workload"
)

// benchResult is one benchmark's record in the output file.
type benchResult struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	N             int     `json:"iterations"`
}

// overheadResult is a paired-overhead scenario: the same sequential
// resolver day plain versus instrumented, compared pairwise (see
// benchPairedOverhead). NoisePct is the run's own measurement-noise
// estimate — the larger of the plain-vs-plain control pair's deviation
// and the instrumented pairs' half-spread; an overhead reading is only
// meaningful down to that precision.
type overheadResult struct {
	PlainNsPerOp        float64 `json:"plain_ns_per_op"`
	InstrumentedNsPerOp float64 `json:"instrumented_ns_per_op"`
	OverheadPct         float64 `json:"overhead_pct"`
	NoisePct            float64 `json:"noise_pct"`
	Pairs               int     `json:"pairs"`
	RoundsPerPair       int     `json:"rounds_per_pair"`
	QueriesPerPass      int     `json:"queries_per_pass"`
}

// allocResult is the alloc scenario: allocation behaviour of the resolve
// hot path, measured separately for the steady-state cache-hit path (the
// zero-allocation contract) and the upstream-miss path, plus how many GC
// cycles the hit benchmark triggered — on a truly allocation-free path the
// collector never runs.
type allocResult struct {
	HitNsPerOp      float64 `json:"hit_ns_per_op"`
	HitAllocsPerOp  int64   `json:"hit_allocs_per_op"`
	HitBytesPerOp   int64   `json:"hit_bytes_per_op"`
	HitGCCycles     uint32  `json:"hit_gc_cycles"`
	HitOps          int     `json:"hit_ops"`
	MissNsPerOp     float64 `json:"miss_ns_per_op"`
	MissAllocsPerOp int64   `json:"miss_allocs_per_op"`
	MissBytesPerOp  int64   `json:"miss_bytes_per_op"`
	MissOps         int     `json:"miss_ops"`
}

// baselineComparison embeds the headline numbers of a previous run (read
// via -baseline) next to this run's, so one report file carries the
// before/after perf trajectory across a change.
type baselineComparison struct {
	Source            string  `json:"source"`
	SequentialNsPerOp float64 `json:"sequential_ns_per_op"`
	SequentialQPS     float64 `json:"sequential_qps"`
	SeqAllocsPerOp    int64   `json:"sequential_allocs_per_op"`
	ParallelNsPerOp   float64 `json:"parallel_ns_per_op"`
	ParallelQPS       float64 `json:"parallel_qps"`
	Speedup           float64 `json:"speedup"`
	// Deltas are this run versus the baseline; positive = faster now.
	SequentialGainPct float64 `json:"sequential_gain_pct"`
	ParallelGainPct   float64 `json:"parallel_gain_pct"`
}

// report embeds telemetry.RunReport, so BENCH_resolver.json carries the
// same schema as the CLIs' -report output (command, timing, runtime,
// metrics snapshot, span tree) plus the benchmark numbers.
type report struct {
	telemetry.RunReport
	Servers    int                 `json:"servers"`
	Queries    int                 `json:"workload_queries"`
	Sequential benchResult         `json:"sequential"`
	Parallel   benchResult         `json:"parallel"`
	Speedup    float64             `json:"speedup"`
	Alloc      *allocResult        `json:"alloc,omitempty"`
	Baseline   *baselineComparison `json:"baseline,omitempty"`
	// MinerOverhead prices the streaming miner's observe-side intake on
	// top of the batch collector taps (see benchMinerOverhead); its
	// control pair is collector-vs-collector, so the gate is calibrated
	// against tap-path jitter.
	MinerOverhead *overheadResult `json:"miner_overhead,omitempty"`
	// ServeThroughput is the UDP front-door matrix: qps and latency
	// percentiles across 1-vs-N listeners and single-vs-batched syscalls.
	ServeThroughput []serveResult `json:"serve_throughput,omitempty"`
	// ServePacketAlloc is the end-to-end serve-path allocation reading
	// behind the -max-packet-allocs gate; ServePacketAllocScored is the
	// same flood with a livescore scorer attached, so the gate also
	// covers the scoring serve path.
	ServePacketAlloc       *servePacketAlloc `json:"serve_packet_alloc,omitempty"`
	ServePacketAllocScored *servePacketAlloc `json:"serve_packet_alloc_scored,omitempty"`
	// CacheMatrix is the eviction-policy × capacity sweep over the slab
	// cache itself (see cache.go): CHR, premature-eviction rate,
	// disposable-victim share, throughput, bytes/entry, and the per-policy
	// steady-state allocation reading behind -max-hit-allocs.
	CacheMatrix []cachePolicyCell `json:"cache_policies,omitempty"`
	Note        string            `json:"note,omitempty"`
	Extra       []benchResult     `json:"extra,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-bench:", err)
		os.Exit(1)
	}
}

func newCluster(servers int, extra ...resolver.Option) (*resolver.Cluster, error) {
	up := authority.NewServer()
	z, err := authority.NewZone("bench.test", authority.WithSynth(
		func(name string, qtype dnsmsg.Type) ([]dnsmsg.RR, bool) {
			return []dnsmsg.RR{{Name: name, Type: qtype, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(198, 18, 0, 1)}}, true
		}))
	if err != nil {
		return nil, err
	}
	if err := up.AddZone(z); err != nil {
		return nil, err
	}
	opts := append([]resolver.Option{
		resolver.WithServers(servers), resolver.WithCacheSize(1 << 14)}, extra...)
	return resolver.NewCluster(up, opts...)
}

// benchQueries mirrors the resolver package's benchmark mix: ≈80% repeats
// over a hot name set (cache hits), 20% fresh names (upstream misses).
func benchQueries(n int) []resolver.Query {
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	qs := make([]resolver.Query, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("host%d.bench.test", i%97)
		if i%5 == 0 {
			name = fmt.Sprintf("cold%d.bench.test", i)
		}
		qs = append(qs, resolver.Query{
			Time:     t0.Add(time.Duration(i) * time.Second),
			ClientID: uint32(i % 512),
			Name:     name,
			Type:     dnsmsg.TypeA,
		})
	}
	return qs
}

func toResult(name string, r testing.BenchmarkResult) benchResult {
	ns := float64(r.NsPerOp())
	qps := 0.0
	if ns > 0 {
		qps = 1e9 / ns
	}
	return benchResult{
		Name:          name,
		NsPerOp:       ns,
		QueriesPerSec: qps,
		AllocsPerOp:   r.AllocsPerOp(),
		BytesPerOp:    r.AllocedBytesPerOp(),
		N:             r.N,
	}
}

// benchGen builds the workload generator used by the source benchmarks,
// at the test scale (small registry, one-day streams in the millions of
// events per second range).
func benchGen() *workload.Generator {
	reg := workload.NewRegistry(workload.RegistryConfig{
		Seed: 1, NonDisposableZones: 300, DisposableZones: 80, HostsPerZoneMax: 48,
	})
	return workload.NewGenerator(reg, workload.GeneratorConfig{
		Seed: 3, Clients: 500, BaseEventsPerDay: 60_000,
	})
}

// drainSource pulls up to max events from src, starting the count at got.
// It returns the updated count and whether the source hit EOF.
func drainSource(b *testing.B, src ingest.QuerySource, got, max int) (int, bool) {
	for got < max {
		_, err := src.Next()
		if err == ingest.ErrPause {
			continue
		}
		if err == io.EOF {
			return got, true
		}
		if err != nil {
			b.Fatal(err)
		}
		got++
	}
	return got, false
}

// benchSources measures ingest-source event throughput: live generation
// (the workload model drawing queries) versus trace replay (JSONL decode,
// plain and gzip). One op is one event, so queries_per_sec is the events/s
// ceiling each source puts on the day pipeline.
func benchSources() ([]benchResult, error) {
	dir, err := os.MkdirTemp("", "dnsnoise-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Serialize one generated day to both trace encodings.
	paths := []string{filepath.Join(dir, "day.jsonl"), filepath.Join(dir, "day.jsonl.gz")}
	for _, path := range paths {
		w, done, err := traceio.CreatePath(path)
		if err != nil {
			return nil, err
		}
		gen := benchGen()
		p := workload.DecemberProfile(time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC))
		if _, err := ingest.Pump(ingest.NewGeneratorSource(gen, p), w); err != nil {
			done()
			return nil, err
		}
		if err := done(); err != nil {
			return nil, err
		}
	}

	genRes := testing.Benchmark(func(b *testing.B) {
		gen := benchGen()
		base := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
		day := 0
		b.ReportAllocs()
		b.ResetTimer()
		for got := 0; got < b.N; {
			src := ingest.NewGeneratorSource(gen, workload.DecemberProfile(base.AddDate(0, 0, day)))
			day++
			got, _ = drainSource(b, src, got, b.N)
		}
	})
	results := []benchResult{toResult("BenchmarkGeneratorSource", genRes)}
	for i, name := range []string{"BenchmarkTraceSourceReplay", "BenchmarkTraceSourceReplayGzip"} {
		path := paths[i]
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for got := 0; got < b.N; {
				src := ingest.NewTraceSource(path)
				var eof bool
				got, eof = drainSource(b, src, got, b.N)
				if err := src.Close(); err != nil {
					b.Fatal(err)
				}
				if eof && got == 0 {
					b.Fatal("empty bench trace")
				}
			}
		})
		results = append(results, toResult(name, res))
	}
	return results, nil
}

// benchResolverDay runs the sequential resolve loop under the testing
// harness against a fresh cluster built with extra options.
func benchResolverDay(servers int, qs []resolver.Query, extra ...resolver.Option) (testing.BenchmarkResult, error) {
	var clusterErr error
	res := testing.Benchmark(func(b *testing.B) {
		c, err := newCluster(servers, extra...)
		if err != nil {
			clusterErr = err
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Resolve(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	return res, clusterErr
}

// benchAlloc measures the hot path's allocation behaviour. The hit side
// warms a small name set, then replays it with timestamps inside the TTL —
// every op is a steady-state cache hit, which the slab LRU + composite-key
// design contracts to resolve with zero heap allocation (and therefore zero
// GC cycles). The miss side draws from a name pool far larger than the
// cache, so every op recurses upstream: its allocs/op is the price of a
// full resolution (wire encode/decode, RR slices, cache insert).
func benchAlloc(servers int) (allocResult, error) {
	var res allocResult
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)

	hitC, err := newCluster(servers)
	if err != nil {
		return res, err
	}
	hot := make([]resolver.Query, 97)
	for i := range hot {
		hot[i] = resolver.Query{
			Time:     t0,
			ClientID: uint32(i),
			Name:     fmt.Sprintf("hot%d.bench.test", i),
			Type:     dnsmsg.TypeA,
		}
	}
	for _, q := range hot { // warm: all misses, fills the caches
		if _, err := hitC.Resolve(q); err != nil {
			return res, err
		}
	}
	var benchErr error
	var gcBefore, gcAfter runtime.MemStats
	hit := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		runtime.ReadMemStats(&gcBefore)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hitC.Resolve(hot[i%len(hot)]); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&gcAfter)
	})
	if benchErr != nil {
		return res, benchErr
	}
	res.HitNsPerOp = float64(hit.NsPerOp())
	res.HitAllocsPerOp = hit.AllocsPerOp()
	res.HitBytesPerOp = hit.AllocedBytesPerOp()
	res.HitGCCycles = gcAfter.NumGC - gcBefore.NumGC
	res.HitOps = hit.N

	missC, err := newCluster(servers)
	if err != nil {
		return res, err
	}
	// Pool 8x the per-server cache: by the time an index wraps, its name
	// has long been evicted, so every op stays a miss.
	cold := make([]resolver.Query, 1<<17)
	for i := range cold {
		cold[i] = resolver.Query{
			Time:     t0,
			ClientID: uint32(i % 512),
			Name:     fmt.Sprintf("cold%d.bench.test", i),
			Type:     dnsmsg.TypeA,
		}
	}
	miss := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := missC.Resolve(cold[i%len(cold)]); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return res, benchErr
	}
	res.MissNsPerOp = float64(miss.NsPerOp())
	res.MissAllocsPerOp = miss.AllocsPerOp()
	res.MissBytesPerOp = miss.AllocedBytesPerOp()
	res.MissOps = miss.N
	return res, nil
}

// loadBaseline reads a previous run's report and distills the comparison
// fields. Gain percentages are filled in by the caller once this run's
// numbers exist.
func loadBaseline(path string) (*baselineComparison, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var prev report
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	return &baselineComparison{
		Source:            path,
		SequentialNsPerOp: prev.Sequential.NsPerOp,
		SequentialQPS:     prev.Sequential.QueriesPerSec,
		SeqAllocsPerOp:    prev.Sequential.AllocsPerOp,
		ParallelNsPerOp:   prev.Parallel.NsPerOp,
		ParallelQPS:       prev.Parallel.QueriesPerSec,
		Speedup:           prev.Speedup,
	}, nil
}

// Overhead-scenario shape: enough pairs for a median that survives one
// unlucky cluster instance, enough rounds for the min to find a quiet
// window, and segments long enough that a GC cycle does not dominate.
const (
	ovPairs     = 3
	ovRounds    = 6
	ovSegPasses = 3
)

// ovPairRatio builds one (plain, other) cluster pair — allocated and
// warmed adjacently, order flipped by the caller, so the two sides see
// near-identical heap layout and machine state — then alternates timed
// segments between them for ovRounds and returns each side's minimum
// ns/op and their ratio. The minimum is the noise-robust estimator:
// contention and GC only ever add time. base builds the plain side;
// other builds the instrumented side, and nil
// makes a base-vs-base control pair.
func ovPairRatio(qs []resolver.Query, flip bool, base, other func() (*resolver.Cluster, error)) (plainNs, otherNs float64, err error) {
	build := func(first bool) (*resolver.Cluster, error) {
		if first != flip { // plain side
			return base()
		}
		if other != nil {
			return other()
		}
		return base() // control pair: both plain
	}
	a, err := build(true)
	if err != nil {
		return 0, 0, err
	}
	b, err := build(false)
	if err != nil {
		return 0, 0, err
	}
	// timePass runs one full pass over the day. After the warmup pass
	// the caches hold every name and the workload's timestamps never
	// advance past the TTLs, so passes stay all-hits — the fast path
	// the zero-cost contract is about.
	timePass := func(c *resolver.Cluster) (float64, error) {
		start := time.Now()
		for _, q := range qs {
			if _, err := c.Resolve(q); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(qs)), nil
	}
	seg := func(c *resolver.Cluster) (float64, error) {
		total := 0.0
		for p := 0; p < ovSegPasses; p++ {
			ns, err := timePass(c)
			if err != nil {
				return 0, err
			}
			total += ns
		}
		return total / ovSegPasses, nil
	}
	for _, c := range []*resolver.Cluster{a, b} {
		if _, err := timePass(c); err != nil {
			return 0, 0, err
		}
	}
	minA, minB := 0.0, 0.0
	for round := 0; round < ovRounds; round++ {
		order := []*resolver.Cluster{a, b}
		if round%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, c := range order {
			ns, err := seg(c)
			if err != nil {
				return 0, 0, err
			}
			switch {
			case c == a && (minA == 0 || ns < minA):
				minA = ns
			case c == b && (minB == 0 || ns < minB):
				minB = ns
			}
		}
	}
	if flip {
		return minB, minA, nil
	}
	return minA, minB, nil
}

// benchPairedOverhead is the paired-comparison method behind the overhead
// scenario: ovPairs instrumented pairs — base() vs other() — compared pair-locally by ovPairRatio with the median ratio as the
// overhead estimate, plus one base-vs-base control pair whose deviation
// from 1.0, together with the instrumented ratios' half-spread, bounds
// what this run can actually resolve (NoisePct).
func benchPairedOverhead(qs []resolver.Query, base, instrumented func() (*resolver.Cluster, error)) (overheadResult, error) {
	var (
		ratios       []float64
		plainMin     float64
		instrMin     float64
		controlRatio float64
	)
	for pair := 0; pair <= ovPairs; pair++ {
		control := pair == ovPairs
		other := instrumented
		if control {
			other = nil // base vs base
		}
		plainNs, otherNs, err := ovPairRatio(qs, pair%2 == 1, base, other)
		if err != nil {
			return overheadResult{}, err
		}
		if control {
			controlRatio = otherNs / plainNs
			continue
		}
		ratios = append(ratios, otherNs/plainNs)
		if plainMin == 0 || plainNs < plainMin {
			plainMin = plainNs
		}
		if instrMin == 0 || otherNs < instrMin {
			instrMin = otherNs
		}
	}
	sort.Float64s(ratios)
	spread := 100 * (ratios[len(ratios)-1] - ratios[0]) / 2
	noise := 100 * absFloat(controlRatio-1)
	if spread > noise {
		noise = spread
	}
	return overheadResult{
		PlainNsPerOp:        plainMin,
		InstrumentedNsPerOp: instrMin,
		OverheadPct:         100 * (median(ratios) - 1),
		NoisePct:            noise,
		Pairs:               ovPairs,
		RoundsPerPair:       ovRounds,
		QueriesPerPass:      len(qs),
	}, nil
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// median returns the middle value of xs (mean of the middle pair when
// even); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 1 {
		return xs[n/2]
	} else {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dnsnoise-bench", flag.ContinueOnError)
	var (
		out      = fs.String("out", "BENCH_resolver.json", "output JSON path ('-' for stdout)")
		servers  = fs.Int("servers", 4, "RDNS servers in the cluster")
		queries  = fs.Int("queries", 100_000, "pre-generated workload size")
		maxMnOv  = fs.Float64("max-miner-overhead", 150.0, "fail when streaming-miner intake overhead exceeds this percent (0 disables the gate)")
		baseline = fs.String("baseline", "", "previous BENCH_resolver.json to embed as a before/after comparison")
		maxHitAl = fs.Int64("max-hit-allocs", 0, "fail when the cache-hit path exceeds this many allocs/op (-1 disables the gate)")
		only     = fs.String("only", "", "run a single scenario ('serve', 'miner' or 'cache') instead of the full suite")
		cacheCap = fs.String("cache-capacities", "4096,65536,1048576", "capacities for the cache policy matrix, comma-separated")
		cacheEv  = fs.Int("cache-events", 500_000, "workload events per cell of the cache policy matrix")
		srvCli   = fs.Int("serve-clients", 8, "concurrent client goroutines in the serve-throughput scenario")
		srvDur   = fs.Duration("serve-duration", time.Second, "flood duration per serve-throughput matrix cell")
		srvBatch = fs.Int("serve-batch", udptransport.DefaultBatch, "batch size for the batched-syscall cells of the serve matrix")
		maxPktAl = fs.Int64("max-packet-allocs", 0, "fail when the serve packet path exceeds this many allocs/op end to end (-1 disables the gate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *servers < 1 {
		return fmt.Errorf("-servers must be >= 1 (got %d)", *servers)
	}
	if *queries < 1 {
		return fmt.Errorf("-queries must be >= 1 (got %d)", *queries)
	}
	if *srvCli < 1 {
		return fmt.Errorf("-serve-clients must be >= 1 (got %d)", *srvCli)
	}
	capacities, err := parseCapacities(*cacheCap)
	if err != nil {
		return err
	}
	if *cacheEv < 1 {
		return fmt.Errorf("-cache-events must be >= 1 (got %d)", *cacheEv)
	}
	switch *only {
	case "":
	case "serve":
		return runServeOnly(args, *out, *srvCli, *srvDur, *srvBatch, *maxPktAl)
	case "miner":
		return runMinerOnly(args, *out, *servers, *queries, *maxMnOv)
	case "cache":
		return runCacheOnly(args, *out, capacities, *cacheEv, *maxHitAl)
	default:
		return fmt.Errorf("-only %q: unknown scenario (want 'serve', 'miner' or 'cache')", *only)
	}
	qs := benchQueries(*queries)
	tracer := telemetry.NewTracer()

	seqSpan := tracer.Start("sequential")
	seq, err := benchResolverDay(*servers, qs)
	if err != nil {
		return err
	}
	seqSpan.AddItems(int64(seq.N))
	seqSpan.End()

	parSpan := tracer.Start("parallel")
	par := testing.Benchmark(func(b *testing.B) {
		c, err := newCluster(*servers)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; {
			n := len(qs)
			if rest := b.N - done; rest < n {
				n = rest
			}
			if err := c.ResolveBatch(qs[:n]); err != nil {
				b.Fatal(err)
			}
			done += n
		}
	})
	parSpan.AddItems(int64(par.N))
	parSpan.End()

	allocSpan := tracer.Start("alloc")
	alloc, err := benchAlloc(*servers)
	if err != nil {
		return fmt.Errorf("alloc benchmark: %w", err)
	}
	allocSpan.End()

	mnSpan := tracer.Start("miner-overhead")
	mnOverhead, err := benchMinerOverhead(*servers, qs)
	if err != nil {
		return fmt.Errorf("miner overhead benchmark: %w", err)
	}
	mnSpan.End()

	cacheSpan := tracer.Start("cache-matrix")
	cacheCells := benchCacheMatrix(capacities, *cacheEv)
	cacheSpan.End()

	srcSpan := tracer.Start("sources")
	extra, err := benchSources()
	if err != nil {
		return fmt.Errorf("source benchmarks: %w", err)
	}
	srcSpan.End()

	serveSpan := tracer.Start("serve-throughput")
	serveMatrix, pktAlloc, pktAllocScored, err := benchServeScenario(*srvCli, *srvDur, *srvBatch)
	if err != nil {
		return err
	}
	serveSpan.End()

	rep := report{
		RunReport:  *telemetry.NewRunReport("dnsnoise-bench", args),
		Servers:    *servers,
		Queries:    *queries,
		Sequential: toResult("BenchmarkClusterSequential", seq),
		Parallel:   toResult("BenchmarkClusterParallel", par),
		Alloc:      &alloc,
		Extra:      extra,
	}
	rep.MinerOverhead = &mnOverhead
	rep.ServeThroughput = serveMatrix
	rep.ServePacketAlloc = &pktAlloc
	rep.ServePacketAllocScored = &pktAllocScored
	rep.CacheMatrix = cacheCells
	if *baseline != "" {
		cmp, err := loadBaseline(*baseline)
		if err != nil {
			return err
		}
		if cmp.SequentialNsPerOp > 0 && rep.Sequential.NsPerOp > 0 {
			cmp.SequentialGainPct = 100 * (cmp.SequentialNsPerOp/rep.Sequential.NsPerOp - 1)
		}
		if cmp.ParallelNsPerOp > 0 && rep.Parallel.NsPerOp > 0 {
			cmp.ParallelGainPct = 100 * (cmp.ParallelNsPerOp/rep.Parallel.NsPerOp - 1)
		}
		rep.Baseline = cmp
	}
	// NewRunReport ran after the benchmarks, so backdate Start to the
	// first span for an honest wall-clock duration.
	rep.Start = tracer.Roots()[0].Start
	rep.Finish(nil, tracer)
	if rep.Parallel.NsPerOp > 0 {
		rep.Speedup = rep.Sequential.NsPerOp / rep.Parallel.NsPerOp
	}
	if runtime.NumCPU() == 1 {
		rep.Note = "single-CPU host: per-server workers cannot run concurrently, so speedup ~1x measures scheduling overhead only"
	}

	err = rep.write(*out, func() {
		fmt.Printf("sequential: %8.1f ns/op (%.0f queries/s)\n", rep.Sequential.NsPerOp, rep.Sequential.QueriesPerSec)
		fmt.Printf("parallel:   %8.1f ns/op (%.0f queries/s)\n", rep.Parallel.NsPerOp, rep.Parallel.QueriesPerSec)
		fmt.Printf("speedup:    %.2fx on %d CPUs (%d servers)\n", rep.Speedup, runtime.NumCPU(), rep.Servers)
		fmt.Printf("alloc hit:  %8.1f ns/op, %d allocs/op, %d B/op, %d GC cycles\n",
			alloc.HitNsPerOp, alloc.HitAllocsPerOp, alloc.HitBytesPerOp, alloc.HitGCCycles)
		fmt.Printf("alloc miss: %8.1f ns/op, %d allocs/op, %d B/op\n",
			alloc.MissNsPerOp, alloc.MissAllocsPerOp, alloc.MissBytesPerOp)
		if rep.Baseline != nil {
			fmt.Printf("baseline:   seq %+.1f%%, par %+.1f%% vs %s\n",
				rep.Baseline.SequentialGainPct, rep.Baseline.ParallelGainPct, rep.Baseline.Source)
		}
		fmt.Printf("miner:      %+.2f%% overhead, ±%.2f%% noise (%.1f -> %.1f ns/op, %d pairs)\n",
			mnOverhead.OverheadPct, mnOverhead.NoisePct,
			mnOverhead.PlainNsPerOp, mnOverhead.InstrumentedNsPerOp, mnOverhead.Pairs)
		printServe(rep.ServeThroughput, rep.ServePacketAlloc, rep.ServePacketAllocScored)
		printCacheMatrix(rep.CacheMatrix)
		for _, r := range rep.Extra {
			fmt.Printf("%-32s %8.1f ns/op (%.0f events/s)\n", r.Name+":", r.NsPerOp, r.QueriesPerSec)
		}
	})
	if err != nil {
		return err
	}
	if *maxHitAl >= 0 && alloc.HitAllocsPerOp > *maxHitAl {
		return fmt.Errorf("cache-hit path allocates %d allocs/op (%d B/op), -max-hit-allocs is %d",
			alloc.HitAllocsPerOp, alloc.HitBytesPerOp, *maxHitAl)
	}
	if err := checkCacheAllocGate(cacheCells, *maxHitAl); err != nil {
		return err
	}
	if err := checkOverheadGate("miner", "-max-miner-overhead", mnOverhead, *maxMnOv); err != nil {
		return err
	}
	if err := checkPacketAllocGate("serve packet path", pktAlloc, *maxPktAl); err != nil {
		return err
	}
	return checkPacketAllocGate("scored serve packet path", pktAllocScored, *maxPktAl)
}

// runMinerOnly is the -only miner mode: just the streaming-miner intake
// overhead pair and its gate, sized for CI smoke via -queries.
func runMinerOnly(args []string, out string, servers, queries int, maxMnOv float64) error {
	tracer := telemetry.NewTracer()
	span := tracer.Start("miner-overhead")
	ov, err := benchMinerOverhead(servers, benchQueries(queries))
	if err != nil {
		return fmt.Errorf("miner overhead benchmark: %w", err)
	}
	span.End()

	rep := report{RunReport: *telemetry.NewRunReport("dnsnoise-bench", args)}
	rep.Servers = servers
	rep.Queries = queries
	rep.MinerOverhead = &ov
	rep.Start = tracer.Roots()[0].Start
	rep.Finish(nil, tracer)

	err = rep.write(out, func() {
		fmt.Printf("miner:      %+.2f%% overhead, ±%.2f%% noise (%.1f -> %.1f ns/op, %d pairs)\n",
			ov.OverheadPct, ov.NoisePct, ov.PlainNsPerOp, ov.InstrumentedNsPerOp, ov.Pairs)
	})
	if err != nil {
		return err
	}
	return checkOverheadGate("miner", "-max-miner-overhead", ov, maxMnOv)
}

// benchServeScenario is the whole serve scenario: the front-door matrix
// over the simulated namespace, then the plain and the scored
// packet-allocation floods.
func benchServeScenario(clients int, dur time.Duration, batch int) (matrix []serveResult, plain, scored servePacketAlloc, err error) {
	reg, wires, err := serveWorkload(4096)
	if err != nil {
		return nil, plain, scored, fmt.Errorf("serve workload: %w", err)
	}
	auth, err := reg.BuildAuthority(nil, nil)
	if err != nil {
		return nil, plain, scored, fmt.Errorf("serve authority: %w", err)
	}
	if matrix, err = benchServeMatrix(auth, clients, dur, batch, wires); err != nil {
		return nil, plain, scored, fmt.Errorf("serve benchmark: %w", err)
	}
	if plain, err = benchServePacketAlloc(false); err != nil {
		return nil, plain, scored, fmt.Errorf("serve alloc benchmark: %w", err)
	}
	if scored, err = benchServePacketAlloc(true); err != nil {
		return nil, plain, scored, fmt.Errorf("scored serve alloc benchmark: %w", err)
	}
	return matrix, plain, scored, nil
}

// runServeOnly is the -only serve mode: just the front-door matrix and the
// packet-allocation gate, fast enough for CI smoke runs, written in the
// same report schema so consumers can read serve_throughput either way.
func runServeOnly(args []string, out string, clients int, dur time.Duration, batch int, maxPktAl int64) error {
	tracer := telemetry.NewTracer()
	serveSpan := tracer.Start("serve-throughput")
	matrix, pktAlloc, pktAllocScored, err := benchServeScenario(clients, dur, batch)
	if err != nil {
		return err
	}
	serveSpan.End()

	rep := report{RunReport: *telemetry.NewRunReport("dnsnoise-bench", args)}
	rep.ServeThroughput = matrix
	rep.ServePacketAlloc = &pktAlloc
	rep.ServePacketAllocScored = &pktAllocScored
	rep.Start = tracer.Roots()[0].Start
	rep.Finish(nil, tracer)
	if runtime.NumCPU() == 1 {
		rep.Note = "single-CPU host: listener workers cannot run concurrently, so the multi-listener cells measure scheduling overhead only"
	}

	if err := rep.write(out, func() { printServe(matrix, &pktAlloc, &pktAllocScored) }); err != nil {
		return err
	}
	if err := checkPacketAllocGate("serve packet path", pktAlloc, maxPktAl); err != nil {
		return err
	}
	return checkPacketAllocGate("scored serve packet path", pktAllocScored, maxPktAl)
}

// write stores the report as indented JSON at out ('-' for stdout). Only a
// run into a file prints the human-readable summary and the path: with '-'
// stdout carries the report itself.
func (rep *report) write(out string, summary func()) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	summary()
	fmt.Printf("wrote %s\n", out)
	return nil
}

// printServe renders the serve matrix and the packet-alloc readings on the
// same stdout summary the other scenarios use.
func printServe(matrix []serveResult, alloc, scored *servePacketAlloc) {
	for _, r := range matrix {
		fmt.Printf("serve %dL/%db:  %8.0f qps, p50 %6.0f us, p99 %6.0f us, drop %.2f%% (%d clients)\n",
			r.Listeners, r.Batch, r.QPS, r.P50Us, r.P99Us, 100*r.DropRate, r.Clients)
	}
	if alloc != nil {
		fmt.Printf("serve alloc: %.3f allocs/op, %.1f B/op end to end (%d packets)\n",
			alloc.AllocsPerOp, alloc.BytesPerOp, alloc.Packets)
	}
	if scored != nil {
		fmt.Printf("scored alloc: %.3f allocs/op, %.1f B/op end to end (%d packets)\n",
			scored.AllocsPerOp, scored.BytesPerOp, scored.Packets)
	}
}

// checkOverheadGate enforces an overhead ceiling. A reading over the gate
// fails the run even when this run's own noise floor is wider than the
// gate: a gate that passes whenever the host is noisy cannot fail, so the
// inconclusive case is an error too (rerun on a quieter host).
func checkOverheadGate(what, flagName string, ov overheadResult, max float64) error {
	if max <= 0 || ov.OverheadPct <= max {
		return nil
	}
	if ov.NoisePct > max {
		return fmt.Errorf("%s overhead gate inconclusive: measured %+.2f%% but this run's noise floor is ±%.2f%% (%s %.2f%%)",
			what, ov.OverheadPct, ov.NoisePct, flagName, max)
	}
	return fmt.Errorf("%s overhead %.2f%% exceeds %s %.2f%% (noise ±%.2f%%)",
		what, ov.OverheadPct, flagName, max, ov.NoisePct)
}
