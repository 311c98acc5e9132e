package mlearn

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// gaussianBlobs builds a two-class dataset with separated means.
func gaussianBlobs(rng *rand.Rand, n, dim int, sep float64) (x [][]float64, y []bool) {
	for i := 0; i < n; i++ {
		pos := i%2 == 0
		row := make([]float64, dim)
		for f := range row {
			mean := 0.0
			if pos {
				mean = sep
			}
			row[f] = mean + rng.NormFloat64()
		}
		x = append(x, row)
		y = append(y, pos)
	}
	return x, y
}

func classifiers() map[string]func() Classifier {
	return map[string]func() Classifier{
		"tree":     func() Classifier { return NewDecisionTree() },
		"nb":       func() Classifier { return &NaiveBayes{} },
		"knn":      func() Classifier { return &KNN{K: 5} },
		"logistic": func() Classifier { return &Logistic{} },
	}
}

func TestAllClassifiersLearnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := gaussianBlobs(rng, 400, 4, 3)
	for name, mk := range classifiers() {
		t.Run(name, func(t *testing.T) {
			c := mk()
			if err := c.Fit(x, y); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			correct := 0
			for i, row := range x {
				pred, _, err := Predict(c, row, 0.5)
				if err != nil {
					t.Fatalf("Predict: %v", err)
				}
				if pred == y[i] {
					correct++
				}
			}
			if acc := float64(correct) / float64(len(x)); acc < 0.95 {
				t.Errorf("training accuracy = %.3f, want >= 0.95 on separable data", acc)
			}
		})
	}
}

func TestClassifierErrorPaths(t *testing.T) {
	for name, mk := range classifiers() {
		t.Run(name, func(t *testing.T) {
			c := mk()
			if err := c.Fit(nil, nil); !errors.Is(err, ErrNoData) {
				t.Errorf("Fit(empty) = %v, want ErrNoData", err)
			}
			if err := c.Fit([][]float64{{1, 2}, {1}}, []bool{true, false}); !errors.Is(err, ErrDimMismatch) {
				t.Errorf("Fit(ragged) = %v, want ErrDimMismatch", err)
			}
			if _, err := mk().PredictProb([]float64{1}); !errors.Is(err, ErrNotFitted) {
				t.Errorf("PredictProb before Fit = %v, want ErrNotFitted", err)
			}
		})
	}
}

func TestPredictDimCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := gaussianBlobs(rng, 50, 3, 2)
	for name, mk := range classifiers() {
		t.Run(name, func(t *testing.T) {
			c := mk()
			if err := c.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			if _, err := c.PredictProb([]float64{1}); !errors.Is(err, ErrDimMismatch) {
				t.Errorf("wrong-dim predict = %v, want ErrDimMismatch", err)
			}
		})
	}
}

func TestNaiveBayesSingleClass(t *testing.T) {
	nb := &NaiveBayes{}
	x := [][]float64{{1}, {2}, {3}}
	y := []bool{true, true, true}
	if err := nb.Fit(x, y); !errors.Is(err, ErrOneClass) {
		t.Errorf("Fit(single class) = %v, want ErrOneClass", err)
	}
}

func TestDecisionTreeSingleClassLeaf(t *testing.T) {
	// A pure training set yields a stump predicting that class.
	dt := NewDecisionTree()
	x := [][]float64{{1}, {2}, {3}}
	if err := dt.Fit(x, []bool{true, true, true}); err != nil {
		t.Fatal(err)
	}
	p, err := dt.PredictProb([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.5 {
		t.Errorf("pure-positive stump prob = %v, want > 0.5", p)
	}
	if dt.depth() != 0 {
		t.Errorf("Depth = %d, want 0", dt.depth())
	}
}

// depth returns the height of the fitted tree (0 for a stump).
func (t *DecisionTree) depth() int {
	var h func(*treeNode) int
	h = func(n *treeNode) int {
		if n == nil || n.leaf {
			return 0
		}
		l, r := h(n.left), h(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return h(t.root)
}

func TestDecisionTreeRespectsMaxDepth(t *testing.T) {
	// Heavily overlapping classes: an unbounded tree grows well past the
	// bound chasing noise, so this one must stop exactly at it.
	rng := rand.New(rand.NewSource(3))
	x, y := gaussianBlobs(rng, 2000, 4, 0.5)
	dt := NewDecisionTree()
	if err := dt.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if dt.depth() != treeMaxDepth {
		t.Errorf("Depth = %d, want %d", dt.depth(), treeMaxDepth)
	}
}

func TestDecisionTreeProbabilitiesAreCalibratedLeaves(t *testing.T) {
	// Leaf probabilities must be Laplace-smoothed: never exactly 0 or 1.
	rng := rand.New(rand.NewSource(4))
	x, y := gaussianBlobs(rng, 200, 2, 4)
	dt := NewDecisionTree()
	if err := dt.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		row := []float64{rng.NormFloat64() * 4, rng.NormFloat64() * 4}
		p, err := dt.PredictProb(row)
		if err != nil {
			t.Fatal(err)
		}
		if p <= 0 || p >= 1 {
			t.Fatalf("leaf prob = %v, want in (0, 1)", p)
		}
	}
}

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 90, FN: 10, FP: 5, TN: 95}
	if got := c.TPR(); got != 0.9 {
		t.Errorf("TPR = %v, want 0.9", got)
	}
	if got := c.FPR(); got != 0.05 {
		t.Errorf("FPR = %v, want 0.05", got)
	}
	if got := c.Accuracy(); got != 0.925 {
		t.Errorf("Accuracy = %v, want 0.925", got)
	}
	var zero Confusion
	if zero.TPR() != 0 || zero.FPR() != 0 || zero.Accuracy() != 0 {
		t.Error("zero confusion metrics should be 0")
	}
}

func TestCrossValidateOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := gaussianBlobs(rng, 400, 4, 3)
	res, err := CrossValidate(func() Classifier { return NewDecisionTree() },
		x, y, 10, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.preds) != len(x) {
		t.Errorf("pooled predictions = %d, want %d", len(res.preds), len(x))
	}
	c := res.ConfusionAt(0.5)
	if c.TPR() < 0.9 || c.FPR() > 0.1 {
		t.Errorf("10-fold CV on separable data: %v", c)
	}
	if auc := res.AUC(); auc < 0.95 {
		t.Errorf("AUC = %v, want >= 0.95", auc)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := CrossValidate(func() Classifier { return &NaiveBayes{} }, nil, nil, 10, rng); !errors.Is(err, ErrNoData) {
		t.Errorf("CV(empty) = %v, want ErrNoData", err)
	}
}

func TestROCShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := gaussianBlobs(rng, 300, 3, 2)
	res, err := CrossValidate(func() Classifier { return &Logistic{} }, x, y, 5, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	pts := res.ROC()
	if len(pts) < 3 {
		t.Fatalf("ROC points = %d", len(pts))
	}
	// Curve must be monotone in both axes after sorting, anchored at the
	// corners.
	for i := 1; i < len(pts); i++ {
		if pts[i].FPR < pts[i-1].FPR || pts[i].TPR < pts[i-1].TPR-1e-9 {
			t.Fatalf("ROC not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	first, last := pts[0], pts[len(pts)-1]
	if first.FPR > 0.01 && first.TPR > first.FPR+0.2 {
		// fine: starts near origin or above diagonal
	}
	if last.FPR < 0.99 || last.TPR < 0.99 {
		t.Errorf("ROC should end at (1,1), got %+v", last)
	}
	// Random-guess baseline: AUC of a coin-flip classifier ~ 0.5.
	var coin CVResult
	coinRng := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		coin.preds = append(coin.preds, scored{prob: coinRng.Float64(), pos: coinRng.Intn(2) == 0})
	}
	if auc := coin.AUC(); auc < 0.45 || auc > 0.55 {
		t.Errorf("coin-flip AUC = %v, want ~0.5", auc)
	}
}

func TestSelectModelOrdersByAUC(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y := gaussianBlobs(rng, 300, 4, 2.5)
	scores, err := SelectModel(classifiers(), x, y, 5, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("scores = %d", len(scores))
	}
	for i := 1; i < len(scores); i++ {
		if scores[i].AUC > scores[i-1].AUC {
			t.Errorf("scores not sorted by AUC: %v", scores)
		}
	}
	// All models should do well here; the top one must be strong.
	if scores[0].AUC < 0.95 {
		t.Errorf("best AUC = %v, want >= 0.95", scores[0].AUC)
	}
}

func TestCVResultEmptyROC(t *testing.T) {
	var r CVResult
	if r.ROC() != nil {
		t.Error("empty ROC should be nil")
	}
	if r.AUC() != 0 {
		t.Error("empty AUC should be 0")
	}
}

func TestKNNDefaultsAndSmallK(t *testing.T) {
	k := &KNN{}
	x := [][]float64{{0}, {0.1}, {10}, {10.1}}
	y := []bool{true, true, false, false}
	if err := k.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if k.K != 5 {
		t.Errorf("default K = %d, want 5", k.K)
	}
	// K exceeds the dataset; must clamp rather than panic.
	p, err := k.PredictProb([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.5 {
		t.Errorf("prob with K=n = %v, want 0.5 (2 of 4 positive)", p)
	}
}

func TestFeatureImportance(t *testing.T) {
	// Class depends only on feature 0; features 1-2 are noise. Importance
	// must concentrate on feature 0.
	rng := rand.New(rand.NewSource(31))
	var x [][]float64
	var y []bool
	for i := 0; i < 300; i++ {
		pos := i%2 == 0
		signal := 0.0
		if pos {
			signal = 4
		}
		x = append(x, []float64{signal + rng.NormFloat64()*0.3, rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, pos)
	}
	dt := NewDecisionTree()
	if err := dt.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	imp := dt.FeatureImportance()
	if len(imp) != 3 {
		t.Fatalf("importance dims = %d", len(imp))
	}
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance: %v", imp)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %v, want 1", sum)
	}
	if imp[0] < 0.9 {
		t.Errorf("signal feature importance = %v, want dominant: %v", imp[0], imp)
	}
}

func TestFeatureImportanceStump(t *testing.T) {
	dt := NewDecisionTree()
	if err := dt.Fit([][]float64{{1}, {2}, {3}}, []bool{true, true, true}); err != nil {
		t.Fatal(err)
	}
	imp := dt.FeatureImportance()
	if len(imp) != 1 || imp[0] != 0 {
		t.Errorf("stump importance = %v, want [0]", imp)
	}
}
