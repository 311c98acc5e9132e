package core

import (
	"path/filepath"
	"testing"

	"dnsnoise/internal/features"
	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/mlearn"
)

// trainedMiner builds a classifier on one synthetic population and a miner
// over it at the given theta.
func trainedMiner(t *testing.T, theta float64) *Miner {
	t.Helper()
	trainC, trainLabels := synthCollector(10, 20, 20, 15)
	byName := trainC.ByName()
	tree := BuildTree(byName, nil)
	examples := BuildTrainingSet(tree, byName, trainLabels, TrainingConfig{})
	clf, err := TrainClassifier(examples, TrainingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMiner(clf, MinerConfig{Theta: theta})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestExplainCoversEveryFinding is the acceptance property: every zone the
// miner classifies disposable has a provenance record whose decision-tree
// path replays to the same label.
func TestExplainCoversEveryFinding(t *testing.T) {
	miner := trainedMiner(t, 0.5)
	var recs []ExplainRecord
	miner.SetExplain(func(rec ExplainRecord) { recs = append(recs, rec) })

	testC, _ := synthCollector(99, 15, 15, 15)
	byName := testC.ByName()
	findings, err := miner.Mine(BuildTree(byName, nil), byName)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("miner found nothing; the explain property is vacuous")
	}
	if err := VerifyExplain(recs); err != nil {
		t.Fatalf("VerifyExplain: %v", err)
	}

	type key struct {
		zone  string
		depth int
	}
	positive := map[key]ExplainRecord{}
	for _, rec := range recs {
		if rec.Disposable {
			positive[key{rec.Zone, rec.Depth}] = rec
		}
	}
	for _, f := range findings {
		rec, ok := positive[key{f.Zone, f.Depth}]
		if !ok {
			t.Errorf("finding %s depth %d has no positive explain record", f.Zone, f.Depth)
			continue
		}
		if rec.Confidence != f.Confidence {
			t.Errorf("%s: record confidence %v != finding confidence %v", f.Zone, rec.Confidence, f.Confidence)
		}
		if rec.GroupSize != len(f.Names) {
			t.Errorf("%s: record group size %d != finding names %d", f.Zone, rec.GroupSize, len(f.Names))
		}
		if len(rec.Path) == 0 {
			t.Errorf("%s: decision-tree classifier produced no path", f.Zone)
		}
	}
	// Negative decisions are recorded too (near-miss auditability).
	if len(recs) <= len(findings) {
		t.Errorf("only %d records for %d findings; negatives missing", len(recs), len(findings))
	}
	for _, rec := range recs {
		if len(rec.Features) != features.Dim {
			t.Fatalf("record carries %d features, want %d", len(rec.Features), features.Dim)
		}
		if rec.GroupSize > 0 && len(rec.SampleNames) == 0 {
			t.Errorf("record %s has no sample names", rec.Zone)
		}
		if len(rec.SampleNames) > 5 {
			t.Errorf("record %s carries %d sample names, cap is 5", rec.Zone, len(rec.SampleNames))
		}
	}
}

func TestExplainWriterRoundTrip(t *testing.T) {
	for _, name := range []string{"explain.jsonl", "explain.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			w, err := jsonl.Create[ExplainRecord](path)
			if err != nil {
				t.Fatal(err)
			}
			miner := trainedMiner(t, 0.5)
			miner.SetExplain(func(rec ExplainRecord) {
				if err := w.Write(&rec); err != nil {
					t.Error(err)
				}
			})
			testC, _ := synthCollector(99, 10, 10, 15)
			byName := testC.ByName()
			if _, err := miner.Mine(BuildTree(byName, nil), byName); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := jsonl.Open[ExplainRecord](path)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(recs)) != w.Count() || len(recs) == 0 {
				t.Fatalf("read %d records, writer counted %d", len(recs), w.Count())
			}
			if err := VerifyExplain(recs); err != nil {
				t.Fatalf("VerifyExplain after round-trip: %v", err)
			}
		})
	}
}

func TestVerifyExplainRejectsInconsistencies(t *testing.T) {
	base := ExplainRecord{
		Zone: "z.test", Depth: 3, GroupSize: 5,
		Features:   map[string]float64{features.Names[0]: 2.0},
		Confidence: 0.9, Theta: 0.5, Disposable: true,
		Path: []mlearn.PathStep{{Feature: 0, Threshold: 1.0, Value: 2.0, Right: true}},
	}
	if err := VerifyExplain([]ExplainRecord{base}); err != nil {
		t.Fatalf("consistent record rejected: %v", err)
	}

	flipped := base
	flipped.Disposable = false
	if err := VerifyExplain([]ExplainRecord{flipped}); err == nil {
		t.Error("threshold/label mismatch not caught")
	}

	badPath := base
	badPath.Path = []mlearn.PathStep{{Feature: 0, Threshold: 3.0, Value: 2.0, Right: true}}
	if err := VerifyExplain([]ExplainRecord{badPath}); err == nil {
		t.Error("non-replaying path not caught")
	}

	badFeature := base
	badFeature.Path = []mlearn.PathStep{{Feature: features.Dim, Threshold: 1.0, Value: 2.0, Right: true}}
	if err := VerifyExplain([]ExplainRecord{badFeature}); err == nil {
		t.Error("out-of-range feature index not caught")
	}

	skewed := base
	skewed.Features = map[string]float64{features.Names[0]: 7.0}
	if err := VerifyExplain([]ExplainRecord{skewed}); err == nil {
		t.Error("path value / feature disagreement not caught")
	}
}
