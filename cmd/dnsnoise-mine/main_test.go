package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dnsnoise/internal/core"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/traceio"
	"dnsnoise/internal/workload"
)

// testGen builds a generator whose seeding mirrors the CLI's (-seed 1 →
// generator seed 3) at the small scale the tests replay.
func testGen(t *testing.T) *workload.Generator {
	t.Helper()
	reg := workload.NewRegistry(workload.RegistryConfig{
		Seed: 1, NonDisposableZones: 60, DisposableZones: 30, HostsPerZoneMax: 16,
	})
	return workload.NewGenerator(reg, workload.GeneratorConfig{
		Seed: 3, Clients: 100, BaseEventsPerDay: 8000,
	})
}

// writeTestTrace generates a small one-day trace matching the registry
// flags used by the tests.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	w, done, err := traceio.CreatePath(path)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.DecemberProfile(workload.PaperDates()[5].Date)
	if _, err := ingest.Pump(ingest.NewGeneratorSource(testGen(t), p), w); err != nil {
		t.Fatal(err)
	}
	if err := done(); err != nil {
		t.Fatal(err)
	}
	return path
}

// sizeFlags must match writeTestTrace / testGen so the replaying side
// rebuilds the recording's namespace and generator.
func sizeFlags() []string {
	return []string{
		"-zones", "60", "-disposable-zones", "30", "-hosts-per-zone", "16",
		"-clients", "100", "-events", "8000",
		"-servers", "2", "-cache", "8192",
	}
}

func mineFlags(trace string) []string {
	return append([]string{
		"-trace", trace, "-theta", "0.5", "-top", "50",
	}, sizeFlags()...)
}

func TestRunMinesTrace(t *testing.T) {
	trace := writeTestTrace(t)
	var out strings.Builder
	if err := run(mineFlags(trace), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"replayed", "mined", "finding-level ground truth", "zone"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// The flagship McAfee zone must appear in the ranked findings.
	if !strings.Contains(got, "mcafee.com") {
		t.Errorf("output missing flagship zone:\n%s", got)
	}
}

// TestLiveMatchesTraceReplay is the CLI-level source-equivalence check:
// mining a recorded trace (split across a plain file and a gzip file)
// prints byte-identical stdout to mining the same days generated live,
// in both sequential and parallel resolution modes.
func TestLiveMatchesTraceReplay(t *testing.T) {
	dir := t.TempDir()
	profiles, err := workload.SelectProfiles("december", 2)
	if err != nil {
		t.Fatal(err)
	}
	gen := testGen(t)
	paths := []string{
		filepath.Join(dir, "day1.jsonl"),
		filepath.Join(dir, "day2.jsonl.gz"),
	}
	for i, p := range profiles {
		w, done, err := traceio.CreatePath(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ingest.Pump(ingest.NewGeneratorSource(gen, p), w); err != nil {
			t.Fatal(err)
		}
		if err := done(); err != nil {
			t.Fatal(err)
		}
	}
	common := append([]string{"-theta", "0.5", "-top", "50", "-days", "2"}, sizeFlags()...)
	for _, mode := range []struct {
		name  string
		extra []string
	}{
		{name: "sequential"},
		{name: "parallel", extra: []string{"-parallel"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var liveOut, traceOut strings.Builder
			liveArgs := append(append([]string{"-live"}, common...), mode.extra...)
			if err := run(liveArgs, &liveOut); err != nil {
				t.Fatalf("live run: %v", err)
			}
			traceArgs := append(append([]string{"-trace", strings.Join(paths, ",")}, common...), mode.extra...)
			if err := run(traceArgs, &traceOut); err != nil {
				t.Fatalf("trace run: %v", err)
			}
			if liveOut.String() != traceOut.String() {
				t.Errorf("live and trace-replay outputs differ:\n--- live ---\n%s\n--- trace ---\n%s",
					liveOut.String(), traceOut.String())
			}
		})
	}
}

// TestTelemetryDoesNotPerturbOutput checks the zero-perturbation
// contract: enabling every telemetry surface (-metrics-addr, -progress,
// -report) leaves stdout byte-identical to a plain run, and the report
// file carries the day span tree plus resolver metrics.
func TestTelemetryDoesNotPerturbOutput(t *testing.T) {
	trace := writeTestTrace(t)
	var plain strings.Builder
	if err := run(mineFlags(trace), &plain); err != nil {
		t.Fatalf("plain run: %v", err)
	}

	reportPath := filepath.Join(t.TempDir(), "report.json")
	var instrumented strings.Builder
	args := append(mineFlags(trace),
		"-metrics-addr", "127.0.0.1:0",
		"-progress", "1h",
		"-report", reportPath,
	)
	if err := run(args, &instrumented); err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	if plain.String() != instrumented.String() {
		t.Errorf("telemetry perturbed stdout:\n--- plain ---\n%s\n--- instrumented ---\n%s",
			plain.String(), instrumented.String())
	}

	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parse report: %v", err)
	}
	if rep.Command != "dnsnoise-mine" {
		t.Errorf("report command = %q, want dnsnoise-mine", rep.Command)
	}
	if rep.DurationSeconds <= 0 {
		t.Errorf("report duration = %v, want > 0", rep.DurationSeconds)
	}
	// The trace holds one december day; its span must appear with the
	// resolve stage nested under it, plus the mine-side stages.
	names := map[string]bool{}
	var walk func(ns []*telemetry.SpanNode)
	walk = func(ns []*telemetry.SpanNode) {
		for _, n := range ns {
			names[n.Name] = true
			if n.Running {
				t.Errorf("span %q still running in final report", n.Name)
			}
			walk(n.Children)
		}
	}
	walk(rep.Spans)
	for _, want := range []string{"2011-12-30", "resolve", "train", "mine"} {
		if !names[want] {
			t.Errorf("report spans missing %q (have %v)", want, names)
		}
	}
	if rep.Metrics == nil {
		t.Fatal("report has no metrics snapshot")
	}
	var queries uint64
	for name, v := range rep.Metrics.Counters {
		if strings.HasPrefix(name, "resolver_queries_total") {
			queries += v
		}
	}
	if queries == 0 {
		t.Error("report metrics missing resolver_queries_total counters")
	}
	if _, ok := rep.Metrics.Histograms["resolver_latency_ns"]; !ok {
		t.Error("report metrics missing resolver_latency_ns histogram")
	}
}

// TestQlogExplainDoNotPerturbOutput extends the zero-perturbation
// contract to the query-level surfaces: enabling -qlog, -explain, and
// the /debug/qlog endpoint leaves stdout byte-identical to a plain run,
// while the side-channel files carry well-formed, verifiable records.
func TestQlogExplainDoNotPerturbOutput(t *testing.T) {
	trace := writeTestTrace(t)
	var plain strings.Builder
	if err := run(mineFlags(trace), &plain); err != nil {
		t.Fatalf("plain run: %v", err)
	}

	dir := t.TempDir()
	qlogPath := filepath.Join(dir, "events.jsonl.gz")
	explainPath := filepath.Join(dir, "explain.jsonl")
	var instrumented strings.Builder
	args := append(mineFlags(trace),
		"-qlog", qlogPath, "-qlog-sample", "1",
		"-explain", explainPath,
		"-metrics-addr", "127.0.0.1:0",
	)
	if err := run(args, &instrumented); err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	if plain.String() != instrumented.String() {
		t.Errorf("qlog/explain perturbed stdout:\n--- plain ---\n%s\n--- instrumented ---\n%s",
			plain.String(), instrumented.String())
	}

	evs, err := jsonl.Open[qlog.Event](qlogPath)
	if err != nil {
		t.Fatalf("read qlog: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("qlog file holds no events at -qlog-sample 1")
	}
	for _, ev := range evs {
		if ev.Name == "" || ev.Qtype == "" || ev.Day == "" || ev.Window == 0 {
			t.Fatalf("qlog event missing identity or day stamp: %+v", ev)
		}
	}

	recs, err := jsonl.Open[core.ExplainRecord](explainPath)
	if err != nil {
		t.Fatalf("read explain: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("explain file holds no decision records")
	}
	if err := core.VerifyExplain(recs); err != nil {
		t.Fatalf("VerifyExplain on CLI output: %v", err)
	}
	disposable := 0
	for _, rec := range recs {
		if rec.Disposable {
			disposable++
		}
	}
	if disposable == 0 {
		t.Error("no disposable decisions recorded; mining found zones, so positives must exist")
	}

	// The -verify-explain mode replays the same file and reports.
	var verifyOut strings.Builder
	if err := run([]string{"-verify-explain", explainPath}, &verifyOut); err != nil {
		t.Fatalf("-verify-explain: %v", err)
	}
	if !strings.Contains(verifyOut.String(), "all decision paths replay") {
		t.Errorf("-verify-explain output = %q", verifyOut.String())
	}
}

// TestStreamingWindowPass runs the same trace with and without -window:
// the batch report must survive byte-identical as a prefix, the streaming
// pass must confirm its day-boundary verdicts match the batch miner, and
// the explain file (owned by the streaming pass when -window is on) must
// verify and carry window stamps with hysteresis state.
func TestStreamingWindowPass(t *testing.T) {
	trace := writeTestTrace(t)
	var batch strings.Builder
	if err := run(mineFlags(trace), &batch); err != nil {
		t.Fatalf("batch run: %v", err)
	}

	explainPath := filepath.Join(t.TempDir(), "explain.jsonl")
	var streamed strings.Builder
	args := append(mineFlags(trace), "-window", "6h", "-explain", explainPath)
	if err := run(args, &streamed); err != nil {
		t.Fatalf("streaming run: %v", err)
	}
	if !strings.HasPrefix(streamed.String(), batch.String()) {
		t.Errorf("-window perturbed the batch report:\n--- batch ---\n%s\n--- streamed ---\n%s",
			batch.String(), streamed.String())
	}
	if !strings.Contains(streamed.String(), "day-boundary verdicts identical to batch miner") {
		t.Errorf("streaming pass did not confirm batch equivalence:\n%s", streamed.String())
	}

	recs, err := jsonl.Open[core.ExplainRecord](explainPath)
	if err != nil {
		t.Fatalf("read explain: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("streaming explain file holds no records")
	}
	if err := core.VerifyExplain(recs); err != nil {
		t.Fatalf("VerifyExplain on streamed records: %v", err)
	}
	windows := map[uint32]bool{}
	for _, rec := range recs {
		if rec.Window == 0 || rec.Day == "" || rec.Hysteresis == "" {
			t.Fatalf("streamed explain record missing window stamp: %+v", rec)
		}
		windows[rec.Window] = true
	}
	if len(windows) < 2 {
		t.Errorf("explain records span %d windows, want intra-day re-scores too", len(windows))
	}
}

// TestStreamingKeepWindows checks the -keep-windows sliding horizon: a
// finite horizon must expire stale zone evidence (changing the verdict
// set relative to the cumulative run), report its expiries, and skip the
// batch-equivalence check that only holds for keep-windows 0.
func TestStreamingKeepWindows(t *testing.T) {
	trace := writeTestTrace(t)
	livePairs := regexp.MustCompile(`(\d+) disposable pairs live`)
	pairsOf := func(out string) int {
		m := livePairs.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no live-pairs line in output:\n%s", out)
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	var cumulative strings.Builder
	if err := run(append(mineFlags(trace), "-window", "6h"), &cumulative); err != nil {
		t.Fatalf("cumulative run: %v", err)
	}
	var sliding strings.Builder
	if err := run(append(mineFlags(trace), "-window", "6h", "-keep-windows", "2"), &sliding); err != nil {
		t.Fatalf("sliding run: %v", err)
	}

	got := sliding.String()
	m := regexp.MustCompile(`sliding horizon of 2 windows, (\d+) zone expiries`).FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("sliding run did not report its horizon:\n%s", got)
	}
	if expired, _ := strconv.Atoi(m[1]); expired == 0 {
		t.Error("2-window horizon over a 4-window day expired nothing; decay is not active")
	}
	if strings.Contains(got, "day-boundary verdicts identical") {
		t.Error("batch-equivalence check must be skipped when evidence decays")
	}
	if c, s := pairsOf(cumulative.String()), pairsOf(got); c == s {
		t.Errorf("live pair count unchanged by the horizon (%d); decay had no effect", c)
	}
}

// TestKeepWindowsFlagGuards: the horizon flag needs the streaming pass
// and rejects negative values.
func TestKeepWindowsFlagGuards(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-live", "-keep-windows", "2"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-window") {
		t.Errorf("keep-windows without -window: err = %v", err)
	}
	if err := run([]string{"-live", "-keep-windows", "-1"}, &out); err == nil {
		t.Error("negative keep-windows should fail")
	}
}

// TestStreamingWindowRejectsStdinTrace: the second pass has to re-read
// the trace, which stdin cannot do.
func TestStreamingWindowRejectsStdinTrace(t *testing.T) {
	var out strings.Builder
	err := run(append(mineFlags("-"), "-window", "6h"), &out)
	if err == nil || !strings.Contains(err.Error(), "stdin") {
		t.Fatalf("err = %v, want stdin rejection", err)
	}
}

// TestVerifyExplainRejectsTamperedFile checks the CLI catches a record
// whose label disagrees with its recorded confidence/theta.
func TestVerifyExplainRejectsTamperedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	rec := core.ExplainRecord{
		Zone: "z.test", Confidence: 0.9, Theta: 0.5, Disposable: false,
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-verify-explain", path}, &out); err == nil {
		t.Error("tampered explain file should fail verification")
	}
}

func TestRunRequiresTraceOrLive(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("missing -trace/-live should fail")
	}
	if err := run([]string{"-trace", "x", "-live"}, &out); err == nil {
		t.Error("-trace with -live should fail")
	}
}

func TestRunEmptyTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-trace", path}, &out); err == nil {
		t.Error("empty trace should fail")
	}
}

func TestTruthMatcher(t *testing.T) {
	m := sim.TruthMatcher(map[string]bool{
		"avqs.mcafee.com": true,
		"example.com":     false,
	})
	if !m("tok.avqs.mcafee.com") {
		t.Error("child of disposable zone should match")
	}
	if m("www.example.com") {
		t.Error("child of non-disposable zone should not match")
	}
	if m("unrelated.org") {
		t.Error("unknown name should not match")
	}
}
