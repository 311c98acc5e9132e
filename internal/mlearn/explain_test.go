package mlearn

import (
	"errors"
	"math/rand"
	"testing"
)

// TestExplainPathMatchesPredictProb walks every training sample through
// both entry points: the explained probability must be bit-identical to
// PredictProb's, and the recorded path must replay.
func TestExplainPathMatchesPredictProb(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := gaussianBlobs(rng, 300, 4, 2)
	tree := NewDecisionTree()
	if err := tree.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	paths := 0
	for _, row := range x {
		want, err := tree.PredictProb(row)
		if err != nil {
			t.Fatal(err)
		}
		got, path, err := tree.ExplainPath(row)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("ExplainPath prob %v != PredictProb %v", got, want)
		}
		if !ReplayPath(path) {
			t.Fatalf("freshly recorded path does not replay: %+v", path)
		}
		paths += len(path)
	}
	if paths == 0 {
		t.Error("tree degenerated to a single leaf; no paths exercised")
	}
}

func TestExplainPathErrors(t *testing.T) {
	tree := NewDecisionTree()
	if _, _, err := tree.ExplainPath([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted ExplainPath = %v, want ErrNotFitted", err)
	}
	rng := rand.New(rand.NewSource(7))
	x, y := gaussianBlobs(rng, 100, 4, 2)
	if err := tree.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tree.ExplainPath([]float64{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("wrong-dim ExplainPath = %v, want ErrDimMismatch", err)
	}
}

func TestReplayPathDetectsTampering(t *testing.T) {
	path := []PathStep{
		{Feature: 0, Threshold: 1.5, Value: 2.0, Right: true},
		{Feature: 2, Threshold: 0.5, Value: 0.1, Right: false},
	}
	if !ReplayPath(path) {
		t.Fatal("consistent path should replay")
	}
	if !ReplayPath(nil) {
		t.Error("empty path (single-leaf tree) should replay")
	}
	tampered := append([]PathStep(nil), path...)
	tampered[1].Value = 3.0 // claims left branch with a value above threshold
	if ReplayPath(tampered) {
		t.Error("tampered path should not replay")
	}
}
