// Package mlearn provides the from-scratch statistical learning toolkit
// behind the disposable-domain classifier: a CART-style decision tree with
// probability leaves (the stand-in for the paper's LAD tree), plus the
// alternatives used during model selection (Gaussian naive Bayes, k-nearest
// neighbours, logistic regression, and a single-hidden-layer neural
// network), k-fold cross-validation, ROC curves and AUC.
package mlearn

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Errors reported by training and evaluation.
var (
	ErrNoData      = errors.New("mlearn: empty training set")
	ErrDimMismatch = errors.New("mlearn: inconsistent feature dimensions")
	ErrNotFitted   = errors.New("mlearn: classifier not fitted")
	ErrOneClass    = errors.New("mlearn: training set has a single class")
)

// Classifier is a binary probabilistic classifier. Fit trains on features X
// and labels y (true = positive/disposable); PredictProb returns the
// estimated probability of the positive class.
type Classifier interface {
	Fit(x [][]float64, y []bool) error
	PredictProb(sample []float64) (float64, error)
}

// Predict applies threshold theta to the classifier's probability, matching
// Algorithm 1's "class == disposable and p >= theta" test.
func Predict(c Classifier, sample []float64, theta float64) (bool, float64, error) {
	p, err := c.PredictProb(sample)
	if err != nil {
		return false, 0, err
	}
	return p >= theta, p, nil
}

func checkTrainingSet(x [][]float64, y []bool) (dim int, err error) {
	if len(x) == 0 || len(x) != len(y) {
		return 0, ErrNoData
	}
	dim = len(x[0])
	for _, row := range x {
		if len(row) != dim {
			return 0, ErrDimMismatch
		}
	}
	return dim, nil
}

// --- Decision tree -----------------------------------------------------

// The decision tree's growth bounds: its height, and the fewest samples a
// leaf may hold.
const (
	treeMaxDepth = 8
	treeMinLeaf  = 3
)

// DecisionTree is a CART-style binary classification tree whose leaves hold
// Laplace-smoothed class probabilities, splitting on Gini impurity with
// class-balanced sample weights (the positive class is up-weighted by the
// negative/positive ratio, so group-granularity imbalance does not drown
// the disposable class). It stands in for the WEKA LAD tree the paper
// selected: an axis-aligned threshold tree producing a confidence score per
// leaf.
type DecisionTree struct {
	root      *treeNode
	dim       int
	posWeight float64
}

type treeNode struct {
	feature   int
	threshold float64
	gain      float64 // impurity decrease achieved by this split
	weight    float64 // fraction of training samples reaching this node
	left      *treeNode
	right     *treeNode
	prob      float64 // leaf probability of the positive class
	leaf      bool
}

// NewDecisionTree returns an untrained tree.
func NewDecisionTree() *DecisionTree {
	return &DecisionTree{}
}

var _ Classifier = (*DecisionTree)(nil)

// Fit grows the tree on the training set.
func (t *DecisionTree) Fit(x [][]float64, y []bool) error {
	dim, err := checkTrainingSet(x, y)
	if err != nil {
		return err
	}
	t.dim = dim
	pos := 0
	for _, label := range y {
		if label {
			pos++
		}
	}
	t.posWeight = 1
	if pos > 0 && pos < len(y) {
		// Square-root dampening balances recall against false positives
		// better than full inverse-frequency weighting on small sets.
		t.posWeight = math.Sqrt(float64(len(y)-pos) / float64(pos))
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(x, y, idx, 0)
	return nil
}

func (t *DecisionTree) grow(x [][]float64, y []bool, idx []int, depth int) *treeNode {
	pos := 0
	for _, i := range idx {
		if y[i] {
			pos++
		}
	}
	// Class-weighted leaf probability with a light additive prior: pure
	// leaves of a handful of samples must still clear high confidence
	// thresholds (Algorithm 1 runs at theta = 0.9).
	wpos := t.posWeight * float64(pos)
	wneg := float64(len(idx) - pos)
	leafProb := (wpos + 0.25) / (wpos + wneg + 0.5)
	if depth >= treeMaxDepth || len(idx) < 2*treeMinLeaf || pos == 0 || pos == len(idx) {
		return &treeNode{leaf: true, prob: leafProb}
	}
	feature, threshold, gain, ok := t.bestSplit(x, y, idx)
	if !ok {
		return &treeNode{leaf: true, prob: leafProb}
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return &treeNode{
		feature:   feature,
		threshold: threshold,
		gain:      gain,
		weight:    float64(len(idx)),
		left:      t.grow(x, y, left, depth+1),
		right:     t.grow(x, y, right, depth+1),
	}
}

// bestSplit scans every feature for the Gini-optimal threshold, returning
// the impurity decrease the winning split achieves.
func (t *DecisionTree) bestSplit(x [][]float64, y []bool, idx []int) (feature int, threshold float64, gain float64, ok bool) {
	bestGini := math.Inf(1)
	n := float64(len(idx))
	type fv struct {
		v   float64
		pos bool
	}
	vals := make([]fv, len(idx))
	for f := 0; f < t.dim; f++ {
		for j, i := range idx {
			vals[j] = fv{v: x[i][f], pos: y[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		totalPos := 0
		for _, e := range vals {
			if e.pos {
				totalPos++
			}
		}
		leftPos, leftN := 0, 0
		for j := 0; j < len(vals)-1; j++ {
			leftN++
			if vals[j].pos {
				leftPos++
			}
			if vals[j].v == vals[j+1].v {
				continue // can only split between distinct values
			}
			rightN := len(vals) - leftN
			if leftN < treeMinLeaf || rightN < treeMinLeaf {
				continue // only consider splits both children can accept
			}
			rightPos := totalPos - leftPos
			gini := t.weightedGini(leftPos, leftN, rightPos, rightN, n)
			if gini < bestGini {
				bestGini = gini
				feature = f
				threshold = (vals[j].v + vals[j+1].v) / 2
				ok = true
			}
		}
	}
	if ok {
		// Parent impurity over the same weighted measure.
		totalPos := 0
		for _, i := range idx {
			if y[i] {
				totalPos++
			}
		}
		parent := t.weightedGini(totalPos, len(idx), 0, 0, n)
		gain = parent - bestGini
		if gain < 0 {
			gain = 0
		}
	}
	return feature, threshold, gain, ok
}

func (t *DecisionTree) weightedGini(leftPos, leftN, rightPos, rightN int, total float64) float64 {
	gini := func(pos, n int) float64 {
		if n == 0 {
			return 0
		}
		wp := t.posWeight * float64(pos)
		wn := float64(n - pos)
		p := wp / (wp + wn)
		return 2 * p * (1 - p)
	}
	return float64(leftN)/total*gini(leftPos, leftN) + float64(rightN)/total*gini(rightPos, rightN)
}

// PredictProb routes the sample to its leaf probability.
func (t *DecisionTree) PredictProb(sample []float64) (float64, error) {
	if t.root == nil {
		return 0, ErrNotFitted
	}
	if len(sample) != t.dim {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(sample), t.dim)
	}
	n := t.root
	for !n.leaf {
		if sample[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.prob, nil
}

// FeatureImportance returns each feature's share of the total
// sample-weighted impurity decrease across the tree's splits (summing to 1
// when any split exists). Standard Gini importance.
func (t *DecisionTree) FeatureImportance() []float64 {
	out := make([]float64, t.dim)
	var walk func(*treeNode)
	walk = func(n *treeNode) {
		if n == nil || n.leaf {
			return
		}
		out[n.feature] += n.gain * n.weight
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	var total float64
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}

// --- Gaussian naive Bayes ----------------------------------------------

// NaiveBayes is a Gaussian naive Bayes classifier with a variance floor.
type NaiveBayes struct {
	dim      int
	prior    [2]float64   // class priors, index 1 = positive
	mean     [2][]float64 // per-class feature means
	variance [2][]float64 // per-class feature variances
	fitted   bool
}

var _ Classifier = (*NaiveBayes)(nil)

// Fit estimates per-class Gaussian parameters.
func (nb *NaiveBayes) Fit(x [][]float64, y []bool) error {
	dim, err := checkTrainingSet(x, y)
	if err != nil {
		return err
	}
	nb.dim = dim
	var counts [2]int
	for c := 0; c < 2; c++ {
		nb.mean[c] = make([]float64, dim)
		nb.variance[c] = make([]float64, dim)
	}
	for i, row := range x {
		c := classIdx(y[i])
		counts[c]++
		for f, v := range row {
			nb.mean[c][f] += v
		}
	}
	if counts[0] == 0 || counts[1] == 0 {
		return ErrOneClass
	}
	for c := 0; c < 2; c++ {
		for f := range nb.mean[c] {
			nb.mean[c][f] /= float64(counts[c])
		}
	}
	for i, row := range x {
		c := classIdx(y[i])
		for f, v := range row {
			d := v - nb.mean[c][f]
			nb.variance[c][f] += d * d
		}
	}
	const varianceFloor = 1e-6
	for c := 0; c < 2; c++ {
		for f := range nb.variance[c] {
			nb.variance[c][f] = nb.variance[c][f]/float64(counts[c]) + varianceFloor
		}
		nb.prior[c] = float64(counts[c]) / float64(len(x))
	}
	nb.fitted = true
	return nil
}

// PredictProb returns the posterior of the positive class.
func (nb *NaiveBayes) PredictProb(sample []float64) (float64, error) {
	if !nb.fitted {
		return 0, ErrNotFitted
	}
	if len(sample) != nb.dim {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(sample), nb.dim)
	}
	var logP [2]float64
	for c := 0; c < 2; c++ {
		logP[c] = math.Log(nb.prior[c])
		for f, v := range sample {
			d := v - nb.mean[c][f]
			logP[c] += -0.5*math.Log(2*math.Pi*nb.variance[c][f]) - d*d/(2*nb.variance[c][f])
		}
	}
	// Softmax over the two log-likelihoods.
	m := math.Max(logP[0], logP[1])
	e0, e1 := math.Exp(logP[0]-m), math.Exp(logP[1]-m)
	return e1 / (e0 + e1), nil
}

func classIdx(positive bool) int {
	if positive {
		return 1
	}
	return 0
}

// --- k-nearest neighbours ----------------------------------------------

// KNN is a k-nearest-neighbours classifier over standardized features.
type KNN struct {
	// K is the neighbourhood size (default 5).
	K int

	x      [][]float64
	y      []bool
	scaler scaler
	fitted bool
}

var _ Classifier = (*KNN)(nil)

// Fit stores the standardized training set.
func (k *KNN) Fit(x [][]float64, y []bool) error {
	dim, err := checkTrainingSet(x, y)
	if err != nil {
		return err
	}
	if k.K == 0 {
		k.K = 5
	}
	k.scaler = fitScaler(x, dim)
	k.x = make([][]float64, len(x))
	for i, row := range x {
		k.x[i] = k.scaler.transform(row)
	}
	k.y = append([]bool(nil), y...)
	k.fitted = true
	return nil
}

// PredictProb returns the positive fraction among the K nearest neighbours.
func (k *KNN) PredictProb(sample []float64) (float64, error) {
	if !k.fitted {
		return 0, ErrNotFitted
	}
	if len(sample) != len(k.scaler.mean) {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(sample), len(k.scaler.mean))
	}
	s := k.scaler.transform(sample)
	type neighbour struct {
		dist float64
		pos  bool
	}
	ns := make([]neighbour, len(k.x))
	for i, row := range k.x {
		var d float64
		for f := range row {
			diff := row[f] - s[f]
			d += diff * diff
		}
		ns[i] = neighbour{dist: d, pos: k.y[i]}
	}
	sort.Slice(ns, func(a, b int) bool { return ns[a].dist < ns[b].dist })
	kk := k.K
	if kk > len(ns) {
		kk = len(ns)
	}
	pos := 0
	for i := 0; i < kk; i++ {
		if ns[i].pos {
			pos++
		}
	}
	return float64(pos) / float64(kk), nil
}

// --- Logistic regression -----------------------------------------------

// Logistic is an L2-regularized logistic regression trained by gradient
// descent on standardized features.
type Logistic struct {
	// LR is the learning rate (default 0.5).
	LR float64
	// Epochs is the number of full gradient passes (default 400).
	Epochs int
	// L2 is the regularization strength (default 1e-3).
	L2 float64

	w      []float64 // weights; w[dim] is the bias
	scaler scaler
	fitted bool
}

var _ Classifier = (*Logistic)(nil)

// Fit trains the model.
func (l *Logistic) Fit(x [][]float64, y []bool) error {
	dim, err := checkTrainingSet(x, y)
	if err != nil {
		return err
	}
	if l.LR == 0 {
		l.LR = 0.5
	}
	if l.Epochs == 0 {
		l.Epochs = 400
	}
	if l.L2 == 0 {
		l.L2 = 1e-3
	}
	l.scaler = fitScaler(x, dim)
	xs := make([][]float64, len(x))
	for i, row := range x {
		xs[i] = l.scaler.transform(row)
	}
	l.w = make([]float64, dim+1)
	grad := make([]float64, dim+1)
	n := float64(len(xs))
	for epoch := 0; epoch < l.Epochs; epoch++ {
		for i := range grad {
			grad[i] = 0
		}
		for i, row := range xs {
			p := sigmoid(dot(l.w, row))
			target := 0.0
			if y[i] {
				target = 1
			}
			diff := p - target
			for f, v := range row {
				grad[f] += diff * v
			}
			grad[dim] += diff
		}
		for f := 0; f < dim; f++ {
			l.w[f] -= l.LR * (grad[f]/n + l.L2*l.w[f])
		}
		l.w[dim] -= l.LR * grad[dim] / n
	}
	l.fitted = true
	return nil
}

// PredictProb returns the sigmoid score.
func (l *Logistic) PredictProb(sample []float64) (float64, error) {
	if !l.fitted {
		return 0, ErrNotFitted
	}
	if len(sample) != len(l.w)-1 {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(sample), len(l.w)-1)
	}
	return sigmoid(dot(l.w, l.scaler.transform(sample))), nil
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// dot computes w[:len(x)]·x + w[len(x)] (bias).
func dot(w, x []float64) float64 {
	var s float64
	for i, v := range x {
		s += w[i] * v
	}
	return s + w[len(x)]
}

// --- feature standardization --------------------------------------------

type scaler struct {
	mean []float64
	std  []float64
}

func fitScaler(x [][]float64, dim int) scaler {
	s := scaler{mean: make([]float64, dim), std: make([]float64, dim)}
	for _, row := range x {
		for f, v := range row {
			s.mean[f] += v
		}
	}
	n := float64(len(x))
	for f := range s.mean {
		s.mean[f] /= n
	}
	for _, row := range x {
		for f, v := range row {
			d := v - s.mean[f]
			s.std[f] += d * d
		}
	}
	for f := range s.std {
		s.std[f] = math.Sqrt(s.std[f] / n)
		if s.std[f] < 1e-9 {
			s.std[f] = 1
		}
	}
	return s
}

func (s scaler) transform(row []float64) []float64 {
	out := make([]float64, len(row))
	for f, v := range row {
		out[f] = (v - s.mean[f]) / s.std[f]
	}
	return out
}
