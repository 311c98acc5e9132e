package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// instance is one warmed-up fixture of a workload, ready to be measured.
type instance interface {
	// run drives the measured phase: it calls m.roundDone after every
	// round and stops at the first round boundary where m.expired holds.
	run(m *meter) error
	// verify checks the phase's outputs after timing. failed counts
	// operations whose output was wrong; digest folds the outputs of the
	// first m.countRounds rounds.
	verify(m *meter) (failed int, digest uint64)
	// layers runs the stand-alone layer passes of a traced instance and
	// stores every per-layer number the workload can measure.
	layers(out map[string]float64) error
	close() error
}

// workloadDef names one scenario. rounds is the number of rounds whose
// allocations, heap and outputs are counted: frozen, so that the count
// metrics depend on the code and the seed, never on how fast the host ran.
type workloadDef struct {
	name   string
	rounds int
	setup  func(cfg config, tr *tracer) (instance, error)
}

var workloads = []workloadDef{
	{"sim-day", 12, setupSimDay},
	{"replay-disposable", 16, setupReplay},
	{"serve-wire", 16, setupServe},
	{"mine-stream", 12, setupMine},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metricDef is one reported metric; the tables below are the Go side of
// BENCHMARK.json, and bench_test.go holds the two equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"allocs_per_query", "allocs"},
	{"bytes_per_query", "B"},
	{"live_heap_mb", "MiB"},
}

// Set-up is repeated so setup_s can be a median; smoke runs set up once.
const setupRepeats = 3

// A traced run splits -seconds between an untraced reference phase and the
// traced repeat; the stand-alone layer passes take the rest.
const tracedPhaseShare = 0.35

func run(cfg config) (result, error) {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return result{}, fmt.Errorf("unknown -workload %q (want one of: %s)", cfg.workload, workloadNames())
	}
	if cfg.trace {
		return runTraced(cfg, w)
	}
	return runEndToEnd(cfg, w)
}

// countedRounds returns the frozen round count at the run's scale.
func countedRounds(cfg config, w *workloadDef, traced bool) int {
	switch {
	case cfg.smoke:
		return 2
	case traced:
		return max(2, w.rounds/4)
	}
	return w.rounds
}

func runEndToEnd(cfg config, w *workloadDef) (result, error) {
	repeats := setupRepeats
	if cfg.smoke {
		repeats = 1
	}
	var (
		setups []float64
		inst   instance
	)
	for i := 0; i < repeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		start := time.Now()
		next, err := w.setup(cfg, nil)
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		inst = next
	}
	defer inst.close()

	m := newMeter(cfg, cfg.seconds, countedRounds(cfg, w, false), nil)
	if err := m.measure(inst); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	failed, digest := inst.verify(m)
	got := fmt.Sprintf("%016x", digest)
	fmt.Fprintf(cfg.log, "%s seed %d: %d rounds, %d ops, digest %s over the first %d rounds, round qps IQR %.2f%%, calibration %.1f -> %.1f Mops/s\n",
		w.name, cfg.seed, len(m.rounds), m.ops, got, m.countRounds, iqrPct(m.roundQPS()), m.calibBefore, m.calibAfter)
	if want, pinned := pinnedDigest(cfg, w.name); pinned && want != got {
		fmt.Fprintf(cfg.log, "%s: digest %s differs from the pinned %q\n", w.name, got, want)
		failed += m.opsCounted
	}
	values := map[string]float64{
		"setup_s":          median(setups),
		"qps":              m.qps(),
		"allocs_per_query": float64(m.mallocs) / float64(m.opsCounted),
		"bytes_per_query":  float64(m.allocBytes) / float64(m.opsCounted),
		"live_heap_mb":     float64(m.liveHeap) / (1 << 20),
	}
	return makeResult(endToEnd, values, m.ops, failed)
}

func runTraced(cfg config, w *workloadDef) (result, error) {
	seconds := cfg.seconds * tracedPhaseShare
	rounds := countedRounds(cfg, w, true)

	plain, err := w.setup(cfg, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	ref := newMeter(cfg, seconds, rounds, nil)
	err = ref.measure(plain)
	failed := 0
	if err == nil {
		failed, _ = plain.verify(ref)
	}
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: untraced phase: %w", w.name, err)
	}

	tr := newTracer()
	traced, err := w.setup(cfg, tr)
	if err != nil {
		return result{}, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	defer traced.close()
	m := newMeter(cfg, seconds, rounds, tr)
	if err := m.measure(traced); err != nil {
		return result{}, fmt.Errorf("%s: traced phase: %w", w.name, err)
	}
	tracedFailed, _ := traced.verify(m)
	failed += tracedFailed

	values := make(map[string]float64, len(perLayer))
	if err := traced.layers(values); err != nil {
		return result{}, fmt.Errorf("%s: layer passes: %w", w.name, err)
	}
	ref.processMetrics(values)
	refQPS, tracedQPS := ref.qps(), m.qps()
	values["bench.trace_overhead_pct"] = 100 * (refQPS - tracedQPS) / refQPS

	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := tr.writeFile(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "%s seed %d traced: %d+%d rounds, %d spans in %s\n",
		w.name, cfg.seed, len(ref.rounds), len(m.rounds), len(tr.spans), path)
	return makeResult(perLayer, values, ref.ops+m.ops, failed)
}

// makeResult renders values in the order and with the units of defs. A
// workload leaves the metrics of layers it never enters at zero.
func makeResult(defs []metricDef, values map[string]float64, attempted, failed int) (result, error) {
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    min(failed, attempted),
		Metrics:   make(map[string]metric, len(defs)),
	}
	for name := range values {
		known := false
		for _, d := range defs {
			known = known || d.name == name
		}
		if !known {
			return result{}, fmt.Errorf("metric %q is not in the metric table", name)
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// pinnedDigest reports whether this run's digest is pinned, and to what:
// expected.json holds the digest of a full-scale end-to-end run of seed 1
// per workload; other seeds and scales only print theirs. A missing or
// unreadable entry pins the empty string, which no digest matches.
func pinnedDigest(cfg config, name string) (want string, pinned bool) {
	if cfg.seed != 1 || cfg.smoke {
		return "", false
	}
	var all map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		fmt.Fprintf(cfg.log, "expected.json: %v\n", err)
	}
	return all[name], true
}

// roundStat is one completed round.
type roundStat struct {
	ops int
	dur time.Duration
}

// meter times the measured phase of one instance. A round is a fixed,
// seed-determined slice of work, and each round's operations over its
// wall time is one sample of the workload's speed (see qps). The count
// metrics cover the first countRounds rounds only.
type meter struct {
	seconds     float64
	countRounds int
	tr          *tracer // nil unless this is the traced phase

	start  time.Time
	last   time.Time
	rounds []roundStat
	ops    int

	before     runtime.MemStats
	beforeCPU  time.Duration
	opsCounted int
	mallocs    uint64
	allocBytes uint64
	liveHeap   uint64
	gcCycles   uint32
	gcPause    time.Duration
	cpu        time.Duration

	calibIters              uint32
	calibBefore, calibAfter float64
}

func newMeter(cfg config, seconds float64, countRounds int, tr *tracer) *meter {
	m := &meter{seconds: seconds, countRounds: countRounds, tr: tr, calibIters: calibIters}
	if cfg.smoke {
		m.calibIters /= 100
	}
	return m
}

// measure runs inst's measured phase between two calibration loops.
func (m *meter) measure(inst instance) error {
	m.calibBefore = calibrate(m.calibIters)
	runtime.GC()
	runtime.ReadMemStats(&m.before)
	m.beforeCPU = cpuTime()
	m.start = time.Now()
	m.last = m.start
	m.tr.openRound()
	if err := inst.run(m); err != nil {
		return err
	}
	if len(m.rounds) < m.countRounds {
		return fmt.Errorf("measured phase ended after %d rounds, %d are counted", len(m.rounds), m.countRounds)
	}
	m.calibAfter = calibrate(m.calibIters)
	return nil
}

// expired reports whether the phase may stop once roundsDone rounds are
// complete: the frozen rounds are in and -seconds have passed.
func (m *meter) expired(roundsDone int) bool {
	return roundsDone >= m.countRounds && time.Since(m.start).Seconds() >= m.seconds
}

// roundDone closes the current round with ops operations in it. At the
// last counted round it reads the allocation counters and the live heap;
// that bookkeeping falls between rounds and is in no round's time.
func (m *meter) roundDone(ops int) {
	now := time.Now()
	m.tr.closeRound()
	m.rounds = append(m.rounds, roundStat{ops: ops, dur: now.Sub(m.last)})
	m.ops += ops
	if len(m.rounds) == m.countRounds {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.opsCounted = m.ops
		m.mallocs = ms.Mallocs - m.before.Mallocs
		m.allocBytes = ms.TotalAlloc - m.before.TotalAlloc
		m.gcCycles = ms.NumGC - m.before.NumGC
		m.gcPause = time.Duration(ms.PauseTotalNs - m.before.PauseTotalNs)
		m.cpu = cpuTime() - m.beforeCPU
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m.liveHeap = ms.HeapAlloc
	}
	m.tr.openRound()
	m.last = time.Now()
}

// qpsPercentile picks the round that stands for the run. Interference from
// the shared host only ever slows a round down, and it comes in waves of
// several seconds, so the median round is as fast as the neighbours were
// quiet for half the run, while the fastest tenth of the rounds is close
// to what the code does undisturbed. Over thirteen recorded sets of ten
// runs the run-to-run spread of the 90th percentile was a fifth below the
// median's, and its worst set was the mildest of any pick's, the maximum
// included (README.md has the table).
const qpsPercentile = 90

// qps returns the run's throughput: the qpsPercentile-th percentile over
// rounds of a round's operations per second.
func (m *meter) qps() float64 { return percentile(m.roundQPS(), qpsPercentile) }

// roundQPS returns each round's operations per second.
func (m *meter) roundQPS() []float64 {
	out := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		out[i] = float64(r.ops) / r.dur.Seconds()
	}
	return out
}

// processMetrics stores the proc.* and bench.* numbers of the untraced
// reference phase: what the host, the collector and the estimator did
// while the qps beside them was measured.
func (m *meter) processMetrics(out map[string]float64) {
	qps := m.roundQPS()
	q1, q3 := quartiles(qps)
	out["bench.rounds"] = float64(len(m.rounds))
	out["bench.round_qps_p25"] = q1
	out["bench.round_qps_p50"] = median(qps)
	out["bench.round_qps_p75"] = q3
	out["bench.round_qps_iqr_pct"] = iqrPct(qps)
	out["bench.calib_mops_before"] = m.calibBefore
	out["bench.calib_mops_after"] = m.calibAfter
	out["proc.cpu_us_per_query"] = float64(m.cpu.Microseconds()) / float64(m.opsCounted)
	out["proc.gc_cycles"] = float64(m.gcCycles)
	out["proc.gc_pause_ms"] = float64(m.gcPause) / float64(time.Millisecond)
	out["proc.peak_rss_mb"] = peakRSSMiB()
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with these arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// calibSink keeps the calibration loop's allocations observable.
var calibSink []byte

// calibIters makes the calibration loop last about a quarter second on the
// reference host.
const calibIters = 8_000_000

// calibrate runs a fixed standard-library-only loop (map lookups, FNV-1a
// steps, small allocations) and returns its speed in million iterations
// per second. It is reported
// before and after the measured phase so a reader can tell a slow host
// from slow code. It is not used to normalise qps: prototypes that did so
// did not shrink the run-to-run spread.
func calibrate(iters uint32) float64 {
	const slots = 1 << 12
	table := make(map[uint32]uint32, slots)
	for i := uint32(0); i < slots; i++ {
		table[i] = i * 2654435761
	}
	start := time.Now()
	h := uint32(2166136261)
	for i := uint32(0); i < iters; i++ {
		h = (h ^ (i & 0xff)) * 16777619
		h = (h ^ (i >> 8 & 0xff)) * 16777619
		h ^= table[h%slots]
		if i%16 == 0 {
			calibSink = make([]byte, 24)
		}
	}
	calibSink = append(calibSink[:0], byte(h))
	return float64(iters) / time.Since(start).Seconds() / 1e6
}
