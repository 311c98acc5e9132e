package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/dntree"
	"dnsnoise/internal/features"
	"dnsnoise/internal/mlearn"
)

// ErrNoExamples indicates an empty or single-class training set.
var ErrNoExamples = errors.New("core: no usable training examples")

// TrainingConfig controls training-set assembly and classifier fitting.
type TrainingConfig struct {
	// MinGroupSize is the minimum black-node count for a group to become a
	// training example, mirroring the paper's conservative floor of zones
	// with at least 15 disposable domains (default 5: the simulated days
	// are smaller than the ISP's).
	MinGroupSize int
	// FeatureMask optionally restricts features (for the ablation
	// experiments); nil uses the full 8-dimensional vector.
	FeatureMask []int
}

func (c *TrainingConfig) setDefaults() {
	if c.MinGroupSize == 0 {
		c.MinGroupSize = 5
	}
}

// BuildTrainingSet extracts labeled group examples from the tree. labels
// maps zone origin to its ground-truth disposable flag (the substitute for
// the paper's manually verified 398 + 401 zones). Every sufficiently large
// group under a labeled zone becomes one example carrying the zone's label.
func BuildTrainingSet(tree *dntree.Tree, byName map[string][]*chrstat.RRStat,
	labels map[string]bool, cfg TrainingConfig) []features.Example {
	cfg.setDefaults()
	// Iterate zones in sorted order: example order decides cross-validation
	// fold membership downstream, and map order would make every CV metric
	// wobble between otherwise identical runs.
	zones := make([]string, 0, len(labels))
	for zone := range labels {
		zones = append(zones, zone)
	}
	sort.Strings(zones)
	var out []features.Example
	for _, zone := range zones {
		disposable := labels[zone]
		zone = dnsname.Normalize(zone)
		for _, g := range tree.GroupsUnder(zone) {
			if len(g.Names) < cfg.MinGroupSize {
				continue
			}
			vec := features.FromGroup(g, byName).Slice()
			if cfg.FeatureMask != nil {
				vec = features.Mask(vec, cfg.FeatureMask)
			}
			out = append(out, features.Example{
				Zone:       zone,
				Depth:      g.Depth,
				Features:   vec,
				Disposable: disposable,
			})
		}
	}
	return out
}

// TrainClassifier fits the decision-tree classifier (the selected model) on
// the examples.
func TrainClassifier(examples []features.Example, cfg TrainingConfig) (*mlearn.DecisionTree, error) {
	x, y, err := splitExamples(examples)
	if err != nil {
		return nil, err
	}
	dt := mlearn.NewDecisionTree()
	if err := dt.Fit(x, y); err != nil {
		return nil, fmt.Errorf("fit decision tree: %w", err)
	}
	return dt, nil
}

// EvaluateClassifier runs the paper's accuracy methodology: k-fold
// cross-validation of the decision tree over the labeled examples, pooled
// into a CVResult for ROC/threshold analysis (Figure 12).
func EvaluateClassifier(examples []features.Example, folds int, cfg TrainingConfig, rng *rand.Rand) (*mlearn.CVResult, error) {
	x, y, err := splitExamples(examples)
	if err != nil {
		return nil, err
	}
	return mlearn.CrossValidate(
		func() mlearn.Classifier { return mlearn.NewDecisionTree() },
		x, y, folds, rng)
}

func splitExamples(examples []features.Example) ([][]float64, []bool, error) {
	if len(examples) == 0 {
		return nil, nil, ErrNoExamples
	}
	x := make([][]float64, len(examples))
	y := make([]bool, len(examples))
	pos := 0
	for i, ex := range examples {
		x[i] = ex.Features
		y[i] = ex.Disposable
		if ex.Disposable {
			pos++
		}
	}
	if pos == 0 || pos == len(examples) {
		return nil, nil, fmt.Errorf("%w: single-class set (%d positive of %d)", ErrNoExamples, pos, len(examples))
	}
	return x, y, nil
}
