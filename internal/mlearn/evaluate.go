package mlearn

import (
	"fmt"
	"math/rand"
	"sort"
)

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// TPR returns the true positive rate (recall on the positive class).
func (c Confusion) TPR() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FPR returns the false positive rate.
func (c Confusion) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// Accuracy returns overall accuracy.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// String renders the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d TPR=%.3f FPR=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.TPR(), c.FPR())
}

// scored is one held-out prediction.
type scored struct {
	prob float64
	pos  bool
}

// CrossValidate runs k-fold cross-validation (the paper's standard 10-fold
// methodology), training a fresh classifier from mk per fold, and returns
// the pooled held-out predictions for downstream thresholding. Folds are
// stratified by shuffling; rng controls the shuffle for reproducibility.
func CrossValidate(mk func() Classifier, x [][]float64, y []bool, folds int, rng *rand.Rand) (*CVResult, error) {
	if _, err := checkTrainingSet(x, y); err != nil {
		return nil, err
	}
	if folds < 2 {
		folds = 2
	}
	if folds > len(x) {
		folds = len(x)
	}
	perm := rng.Perm(len(x))
	res := &CVResult{}
	for f := 0; f < folds; f++ {
		var trainX, testX [][]float64
		var trainY, testY []bool
		for j, idx := range perm {
			if j%folds == f {
				testX = append(testX, x[idx])
				testY = append(testY, y[idx])
			} else {
				trainX = append(trainX, x[idx])
				trainY = append(trainY, y[idx])
			}
		}
		c := mk()
		if err := c.Fit(trainX, trainY); err != nil {
			return nil, fmt.Errorf("fold %d: %w", f, err)
		}
		for j, sample := range testX {
			p, err := c.PredictProb(sample)
			if err != nil {
				return nil, fmt.Errorf("fold %d predict: %w", f, err)
			}
			res.preds = append(res.preds, scored{prob: p, pos: testY[j]})
		}
	}
	return res, nil
}

// CVResult holds pooled held-out predictions from cross-validation.
type CVResult struct {
	preds []scored
}

// ConfusionAt thresholds the pooled predictions at theta.
func (r *CVResult) ConfusionAt(theta float64) Confusion {
	var c Confusion
	for _, p := range r.preds {
		predicted := p.prob >= theta
		switch {
		case predicted && p.pos:
			c.TP++
		case predicted && !p.pos:
			c.FP++
		case !predicted && p.pos:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// ROCPoint is one operating point of the ROC curve.
type ROCPoint struct {
	Threshold float64
	TPR       float64
	FPR       float64
}

// ROC sweeps thresholds over the pooled predictions and returns the curve
// ordered by increasing FPR (ending at the all-positive corner).
func (r *CVResult) ROC() []ROCPoint {
	if len(r.preds) == 0 {
		return nil
	}
	// Sweep every distinct probability as a threshold, plus the corners.
	thresholds := make([]float64, 0, len(r.preds)+2)
	seen := make(map[float64]struct{})
	for _, p := range r.preds {
		if _, dup := seen[p.prob]; !dup {
			seen[p.prob] = struct{}{}
			thresholds = append(thresholds, p.prob)
		}
	}
	thresholds = append(thresholds, 0, 1.0000001)
	sort.Sort(sort.Reverse(sort.Float64Slice(thresholds)))
	pts := make([]ROCPoint, 0, len(thresholds))
	for _, th := range thresholds {
		c := r.ConfusionAt(th)
		pts = append(pts, ROCPoint{Threshold: th, TPR: c.TPR(), FPR: c.FPR()})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].FPR != pts[j].FPR {
			return pts[i].FPR < pts[j].FPR
		}
		return pts[i].TPR < pts[j].TPR
	})
	return pts
}

// AUC integrates the ROC curve with the trapezoid rule.
func (r *CVResult) AUC() float64 {
	pts := r.ROC()
	if len(pts) < 2 {
		return 0
	}
	var auc float64
	for i := 1; i < len(pts); i++ {
		dx := pts[i].FPR - pts[i-1].FPR
		auc += dx * (pts[i].TPR + pts[i-1].TPR) / 2
	}
	return auc
}

// ModelScore summarizes one candidate during model selection.
type ModelScore struct {
	Name     string
	AUC      float64
	At05     Confusion // operating point theta = 0.5
	At09     Confusion // operating point theta = 0.9
	Accuracy float64
}

// SelectModel cross-validates each named candidate and returns the scores
// sorted by descending AUC — the paper's model-selection experiment that
// chose the LAD tree over NB, kNN, neural nets and logistic regression.
func SelectModel(candidates map[string]func() Classifier, x [][]float64, y []bool, folds int, rng *rand.Rand) ([]ModelScore, error) {
	names := make([]string, 0, len(candidates))
	for name := range candidates {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic rng consumption order
	out := make([]ModelScore, 0, len(names))
	for _, name := range names {
		res, err := CrossValidate(candidates[name], x, y, folds, rng)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", name, err)
		}
		at05 := res.ConfusionAt(0.5)
		out = append(out, ModelScore{
			Name:     name,
			AUC:      res.AUC(),
			At05:     at05,
			At09:     res.ConfusionAt(0.9),
			Accuracy: at05.Accuracy(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AUC > out[j].AUC })
	return out, nil
}
