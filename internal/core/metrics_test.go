package core

import (
	"testing"
	"time"

	"dnsnoise/internal/telemetry"
)

// TestPipelineMetrics mines two days with a registry attached and checks
// the miner's counters agree with the returned findings.
func TestPipelineMetrics(t *testing.T) {
	trainC, trainLabels := synthCollector(70, 15, 15, 15)
	trainByName := trainC.ByName()
	trainTree := BuildTree(trainByName, nil)
	examples := BuildTrainingSet(trainTree, trainByName, trainLabels, TrainingConfig{})
	clf, err := TrainClassifier(examples, TrainingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	miner, err := NewMiner(clf, MinerConfig{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(miner, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	miner.SetMetrics(reg)

	day := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	var totalFindings uint64
	for d := 0; d < 2; d++ {
		c, _ := synthCollector(71, 10, 10, 15)
		findings, err := pipe.ProcessDay(day.AddDate(0, 0, d), c.ByName())
		if err != nil {
			t.Fatal(err)
		}
		totalFindings += uint64(len(findings))
	}

	snap := reg.Snapshot()
	decisions := snap.Counter("miner_decisions_total")
	disposable := snap.Counter("miner_disposable_groups_total")
	if decisions == 0 {
		t.Error("miner made no counted decisions")
	}
	if disposable != totalFindings {
		t.Errorf("miner_disposable_groups_total = %d, want %d (one per finding)",
			disposable, totalFindings)
	}
	if disposable > decisions {
		t.Error("disposable groups exceed total decisions")
	}
}
