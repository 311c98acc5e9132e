package main

import (
	"path/filepath"
	"strings"
	"testing"

	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/qlog"
)

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	got := out.String()
	for _, id := range []string{
		"fig2", "fig3a", "fig3b", "fig4", "fig5", "fig7", "fig11", "fig12",
		"fig13", "fig14", "fig15", "table1", "table2", "cache", "cache-policy",
		"dnssec", "mitigation", "crossnet", "renewal", "taxonomy", "baseline",
		"clients", "ablation-features", "ablation-cache",
	} {
		if !strings.Contains(got, id) {
			t.Errorf("catalog missing %q", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-id", "fig99"}, &out); err == nil {
		t.Error("unknown id should fail")
	}
	if err := run([]string{"-scale", "galactic"}, &out); err == nil {
		t.Error("unknown scale should fail")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	var out strings.Builder
	if err := run([]string{"-id", "fig3a", "-scale", "small"}, &out); err != nil {
		t.Fatalf("run fig3a: %v", err)
	}
	if !strings.Contains(out.String(), "Figure 3") {
		t.Errorf("output missing figure header:\n%s", out.String())
	}
}

// TestQlogDoesNotPerturbExperiment checks the experiment driver's
// zero-perturbation contract: running fig3a with a query log attached
// prints byte-identical stdout, and the log carries day-stamped events.
func TestQlogDoesNotPerturbExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	var plain strings.Builder
	if err := run([]string{"-id", "fig3a", "-scale", "small"}, &plain); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	qlogPath := filepath.Join(t.TempDir(), "events.jsonl.gz")
	var logged strings.Builder
	if err := run([]string{"-id", "fig3a", "-scale", "small",
		"-qlog", qlogPath, "-qlog-sample", "256"}, &logged); err != nil {
		t.Fatalf("qlog run: %v", err)
	}
	if plain.String() != logged.String() {
		t.Errorf("qlog perturbed experiment output:\n--- plain ---\n%s\n--- qlog ---\n%s",
			plain.String(), logged.String())
	}
	evs, err := jsonl.Open[qlog.Event](qlogPath)
	if err != nil {
		t.Fatalf("read qlog: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("experiment run sampled no events")
	}
	for _, ev := range evs {
		if ev.Day == "" || ev.Window == 0 {
			t.Fatalf("event missing day stamp: %+v", ev)
		}
	}
}
