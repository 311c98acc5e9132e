package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkJSON
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the harness's
// own tables from drifting apart: same workloads, same metric names in the
// same order, same units.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := loadBenchmarkJSON(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the harness %s [%s]",
					kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range bf.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range bf.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, smoke: true, trace: trace, outDir: t.TempDir(), log: io.Discard}
}

func metricNames(res result) []string {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func wantNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	slices.Sort(names)
	return names
}

// TestSmokeRuns drives every workload end to end and traced at smoke scale
// (two tiny rounds): each must pass its output checks and print exactly
// the metrics BENCHMARK.json lists for that kind of run.
func TestSmokeRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(smokeConfig(t, w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("end-to-end run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got, want := metricNames(res), wantNames(endToEnd); !slices.Equal(got, want) {
				t.Errorf("end-to-end run printed %v, want %v", got, want)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; these must never be zero", name, m.Value)
				}
			}

			cfg := smokeConfig(t, w.name, true)
			res, err = run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if got, want := metricNames(res), wantNames(perLayer); !slices.Equal(got, want) {
				t.Errorf("traced run printed %v, want %v", got, want)
			}
			if res.Metrics["bench.rounds"].Value != 2 {
				t.Errorf("bench.rounds = %v at smoke scale, want 2", res.Metrics["bench.rounds"].Value)
			}
			info, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
			if err != nil || info.Size() == 0 {
				t.Errorf("traced run left no span file: %v", err)
			}
		})
	}
}

// TestCorruptedExpectationFails breaks one expected response of serve-wire
// and asserts the run reports it: the output check must be able to fail.
func TestCorruptedExpectationFails(t *testing.T) {
	cfg := smokeConfig(t, "serve-wire", false)
	inst, err := setupServe(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	inst.(*serve).expect[0].ancount++
	m := newMeter(cfg, 0, 2, nil)
	if err := m.measure(inst); err != nil {
		t.Fatal(err)
	}
	if failed, _ := inst.verify(m); failed == 0 {
		t.Fatal("a wrong expected ANCOUNT went unnoticed: failed == 0")
	}
}
