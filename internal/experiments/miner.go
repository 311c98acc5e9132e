package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/features"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/stats"
	"dnsnoise/internal/workload"
)

// --- Figure 7: CHR distribution, disposable vs non-disposable zones ------

// Fig7Result compares the cache-hit-rate distributions of the two labeled
// populations.
type Fig7Result struct {
	Date                  string
	DisposableCDF         []stats.Point
	NonDisposableCDF      []stats.Point
	DisposableZeroFrac    float64 // paper: ~90% of disposable CHR values are zero
	NonDispAboveThreshold float64 // fraction of non-disposable CHR > 0.58 (paper: 45%)
}

// Fig7LabeledCHR splits the reference day's CHR sample by ground-truth
// category, reproducing Figure 7.
func (r *Run) Fig7LabeledCHR() (*Fig7Result, error) {
	d, err := r.refDay()
	if err != nil {
		return nil, err
	}
	collector := d.collector
	isDisp := func(st *chrstat.RRStat) bool { return st.Category == cache.CategoryDisposable }
	isNot := func(st *chrstat.RRStat) bool { return st.Category != cache.CategoryDisposable }
	disp := collector.CHRSample(isDisp, 64)
	non := collector.CHRSample(isNot, 64)
	nonCDF := stats.NewCDF(non)
	return &Fig7Result{
		Date:                  d.label,
		DisposableCDF:         stats.NewCDF(disp).Points(21),
		NonDisposableCDF:      nonCDF.Points(21),
		DisposableZeroFrac:    stats.FractionZero(disp),
		NonDispAboveThreshold: 1 - nonCDF.At(0.58),
	}, nil
}

// Render prints the separation headline.
func (r *Fig7Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7 — CHR distribution by class, %s\n", r.Date)
	fmt.Fprintf(&sb, "  disposable CHR values that are zero: %s (paper: 90%%)\n", pct(r.DisposableZeroFrac))
	fmt.Fprintf(&sb, "  non-disposable CHR values above 0.58: %s (paper: 45%%)\n", pct(r.NonDispAboveThreshold))
	return sb.String()
}

// --- Figure 12: classifier accuracy and ROC -------------------------------

// Fig12Result is the cross-validated accuracy of the disposable-domain
// classifier.
type Fig12Result struct {
	Examples  int
	Positives int
	AUC       float64
	ROC       []mlearn.ROCPoint
	At05      mlearn.Confusion // paper: 97% TPR / 1% FPR
	At09      mlearn.Confusion // paper: 92.4% TPR / 0.6% FPR
	// ModelSelection reproduces the paper's comparison against NB, kNN and
	// logistic regression, sorted by AUC.
	ModelSelection []mlearn.ModelScore
	// FeatureImportance is the full-fit tree's Gini importance per feature,
	// indexed like features.Names.
	FeatureImportance []float64
}

// Fig12ROC builds the labeled training set from the reference day and runs
// the paper's 10-fold cross-validation, both for the selected decision tree
// (ROC, Figure 12) and the model-selection candidates.
func (r *Run) Fig12ROC() (*Fig12Result, error) {
	d, err := r.refDay()
	if err != nil {
		return nil, err
	}
	examples := d.env.TrainingSet(d.byName, core.TrainingConfig{})

	rng := rand.New(rand.NewSource(r.scale.Seed + 100))
	cv, err := core.EvaluateClassifier(examples, 10, core.TrainingConfig{}, rng)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{
		Examples: len(examples),
		AUC:      cv.AUC(),
		ROC:      cv.ROC(),
		At05:     cv.ConfusionAt(0.5),
		At09:     cv.ConfusionAt(0.9),
	}
	for _, ex := range examples {
		if ex.Disposable {
			res.Positives++
		}
	}

	fullTree, err := core.TrainClassifier(examples, core.TrainingConfig{})
	if err != nil {
		return nil, err
	}
	res.FeatureImportance = fullTree.FeatureImportance()

	x := make([][]float64, len(examples))
	y := make([]bool, len(examples))
	for i, ex := range examples {
		x[i] = ex.Features
		y[i] = ex.Disposable
	}
	res.ModelSelection, err = mlearn.SelectModel(map[string]func() mlearn.Classifier{
		"lad-tree":    func() mlearn.Classifier { return mlearn.NewDecisionTree() },
		"naive-bayes": func() mlearn.Classifier { return &mlearn.NaiveBayes{} },
		"knn":         func() mlearn.Classifier { return &mlearn.KNN{K: 5} },
		"neural-net":  func() mlearn.Classifier { return &mlearn.MLP{} },
		"logistic":    func() mlearn.Classifier { return &mlearn.Logistic{} },
	}, x, y, 10, rand.New(rand.NewSource(r.scale.Seed+101)))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the operating points and the model-selection table.
func (r *Fig12Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 12 — classifier ROC (%d examples, %d disposable)\n", r.Examples, r.Positives)
	fmt.Fprintf(&sb, "  AUC: %.4f\n", r.AUC)
	fmt.Fprintf(&sb, "  theta=0.5: TPR %s FPR %s (paper: 97%% / 1%%)\n", pct(r.At05.TPR()), pct(r.At05.FPR()))
	fmt.Fprintf(&sb, "  theta=0.9: TPR %s FPR %s (paper: 92.4%% / 0.6%%)\n", pct(r.At09.TPR()), pct(r.At09.FPR()))
	header := []string{"model", "AUC", "TPR@0.5", "FPR@0.5", "accuracy"}
	var rows [][]string
	for _, m := range r.ModelSelection {
		rows = append(rows, []string{
			m.Name, fmt.Sprintf("%.4f", m.AUC),
			pct(m.At05.TPR()), pct(m.At05.FPR()), pct(m.Accuracy),
		})
	}
	sb.WriteString(renderTable(header, rows))
	if len(r.FeatureImportance) == len(features.Names) {
		sb.WriteString("feature importance (Gini): ")
		for i, v := range r.FeatureImportance {
			if v < 0.01 {
				continue
			}
			fmt.Fprintf(&sb, "%s=%.2f ", features.Names[i], v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// --- Figures 11 & 13, Tables I & II: the six-date growth study ------------

// DateResult holds the per-date measurements of the growth study.
type DateResult struct {
	Label string
	// Shares measured with the MINED zone set (the paper's methodology).
	QueriedDisposableFrac  float64
	ResolvedDisposableFrac float64
	RRDisposableFrac       float64
	// Ground-truth shares, for honesty about miner-induced error.
	TruthQueriedFrac  float64
	TruthResolvedFrac float64
	TruthRRFrac       float64
	// Mined zone inventory for the date.
	MinedZones int
	// Long-tail rows (Tables I and II).
	VolumeTail chrstat.TailStats
	DHRTail    chrstat.TailStats
	// TTL histogram of mined disposable RRs (Figure 14).
	TTLHistogram map[uint32]int
}

// GrowthResult is the complete six-date study backing Figures 11, 13, 14
// and Tables I, II.
type GrowthResult struct {
	Dates []DateResult
	// Cumulative inventory across dates (Figure 11's 14,488 zones under
	// 12,397 2LDs).
	TotalZones  int
	TotalE2LDs  int
	MeanPeriods float64
	// Classifier accuracy carried over from the training date.
	TrainAt05 mlearn.Confusion
	TrainAt09 mlearn.Confusion
}

// GrowthStudy trains the classifier once (10-fold validated), then applies
// the miner to each of the paper's six dated profiles and measures
// disposable shares, tails and TTLs. The run simulates the study once for
// Figures 11, 13 and 14 and Tables I and II.
func (r *Run) GrowthStudy() (*GrowthResult, error) { return r.growth() }

func growthStudy(scale sim.Scale) (*GrowthResult, error) {
	env, err := sim.NewEnv(scale)
	if err != nil {
		return nil, err
	}
	dates := workload.PaperDates()

	// Train on a dedicated calibration day using the ground-truth labels
	// (the stand-in for the paper's manual labeling on 11/10/2011).
	trainProfile := workload.DecemberProfile(dateAt(-10))
	trainCollector, err := env.RunDay(trainProfile)
	if err != nil {
		return nil, err
	}
	examples := env.TrainingSet(trainCollector.ByName(), core.TrainingConfig{})
	cv, err := core.EvaluateClassifier(examples, 10, core.TrainingConfig{}, rand.New(rand.NewSource(scale.Seed+200)))
	if err != nil {
		return nil, err
	}
	clf, err := core.TrainClassifier(examples, core.TrainingConfig{})
	if err != nil {
		return nil, err
	}
	miner, err := core.NewMiner(clf, core.MinerConfig{Theta: 0.9})
	if err != nil {
		return nil, err
	}

	res := &GrowthResult{TrainAt05: cv.ConfusionAt(0.5), TrainAt09: cv.ConfusionAt(0.9)}
	allFindings := make([]core.Finding, 0, 256)
	for _, p := range dates {
		collector, err := env.RunDay(p)
		if err != nil {
			return nil, err
		}
		byName := collector.ByName()
		tree := core.BuildTree(byName, env.Suffixes)
		findings, err := miner.Mine(tree, byName)
		if err != nil {
			return nil, err
		}
		allFindings = append(allFindings, findings...)
		matcher := core.NewMatcher(findings)
		mined := func(name string) bool { _, ok := matcher.Match(name); return ok }

		dr := DateResult{Label: p.Label, MinedZones: len(matcher.Zones())}
		qt, qm := collector.QueriedNames(mined)
		rt, rm := collector.ResolvedNames(mined)
		dr.QueriedDisposableFrac = frac(qm, qt)
		dr.ResolvedDisposableFrac = frac(rm, rt)

		var rrTotal, rrMined, truthQ, truthR, truthRR int
		for _, st := range collector.Records() {
			rrTotal++
			if mined(st.Name) {
				rrMined++
			}
			if st.Category == cache.CategoryDisposable {
				truthRR++
			}
		}
		dr.RRDisposableFrac = frac(rrMined, rrTotal)

		truthMatch := sim.TruthMatcher(env.Registry.GroundTruth())
		_, truthQ = collector.QueriedNames(truthMatch)
		_, truthR = collector.ResolvedNames(truthMatch)
		dr.TruthQueriedFrac = frac(truthQ, qt)
		dr.TruthResolvedFrac = frac(truthR, rt)
		dr.TruthRRFrac = frac(truthRR, rrTotal)

		dr.VolumeTail = collector.Tail(func(st *chrstat.RRStat) bool { return st.Below < 10 })
		dr.DHRTail = collector.Tail(func(st *chrstat.RRStat) bool { return st.DHR() == 0 })

		dr.TTLHistogram = make(map[uint32]int)
		for _, st := range collector.Records() {
			if mined(st.Name) {
				dr.TTLHistogram[st.TTL]++
			}
		}
		res.Dates = append(res.Dates, dr)
	}
	summary := core.Summarize(allFindings, env.Suffixes)
	res.TotalZones = summary.Zones
	res.TotalE2LDs = summary.E2LDs
	res.MeanPeriods = summary.MeanPeriods
	return res, nil
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// RenderFig13 prints the growth table (Figure 13).
func (r *GrowthResult) RenderFig13() string {
	header := []string{"date", "queried%", "resolved%", "RR%", "truth-RR%", "zones"}
	var rows [][]string
	for _, d := range r.Dates {
		rows = append(rows, []string{
			d.Label,
			pct(d.QueriedDisposableFrac),
			pct(d.ResolvedDisposableFrac),
			pct(d.RRDisposableFrac),
			pct(d.TruthRRFrac),
			fmt.Sprintf("%d", d.MinedZones),
		})
	}
	var sb strings.Builder
	sb.WriteString("Figure 13 — growth of disposable zones (mined shares)\n")
	sb.WriteString("paper: queried 23.1->27.6%, resolved 27.6->37.2%, RRs 38.3->65.5%\n")
	sb.WriteString(renderTable(header, rows))
	return sb.String()
}

// RenderFig11 prints the summary table (Figure 11).
func (r *GrowthResult) RenderFig11() string {
	var sb strings.Builder
	sb.WriteString("Figure 11 — measurement results summary\n")
	fmt.Fprintf(&sb, "  classifier @0.5: TPR %s FPR %s (paper: 97%% / 1%%)\n",
		pct(r.TrainAt05.TPR()), pct(r.TrainAt05.FPR()))
	fmt.Fprintf(&sb, "  classifier @0.9: TPR %s FPR %s (paper: 92.4%% / 0.6%%)\n",
		pct(r.TrainAt09.TPR()), pct(r.TrainAt09.FPR()))
	fmt.Fprintf(&sb, "  disposable zones mined: %d under %d 2LDs (paper: 14,488 / 12,397)\n",
		r.TotalZones, r.TotalE2LDs)
	fmt.Fprintf(&sb, "  mean periods per disposable name: %.1f (paper: 7)\n", r.MeanPeriods)
	if len(r.Dates) > 0 {
		first, last := r.Dates[0], r.Dates[len(r.Dates)-1]
		fmt.Fprintf(&sb, "  queried share growth: %s -> %s\n", pct(first.QueriedDisposableFrac), pct(last.QueriedDisposableFrac))
		fmt.Fprintf(&sb, "  resolved share growth: %s -> %s\n", pct(first.ResolvedDisposableFrac), pct(last.ResolvedDisposableFrac))
		fmt.Fprintf(&sb, "  RR share growth: %s -> %s\n", pct(first.RRDisposableFrac), pct(last.RRDisposableFrac))
	}
	return sb.String()
}

// RenderTables prints Tables I and II.
func (r *GrowthResult) RenderTables() string {
	var sb strings.Builder
	sb.WriteString("Table I — disposable RRs in the low-lookup-volume tail (<10 lookups)\n")
	header := []string{"date", "tail%", "disp share of tail", "disp in tail"}
	var rows [][]string
	for _, d := range r.Dates {
		rows = append(rows, []string{
			d.Label, pct(d.VolumeTail.TailFrac),
			pct(d.VolumeTail.TailDisposableFrac), pct(d.VolumeTail.DisposableTailFrac),
		})
	}
	sb.WriteString(renderTable(header, rows))
	sb.WriteString("\nTable II — disposable RRs in the zero-DHR tail\n")
	rows = rows[:0]
	for _, d := range r.Dates {
		rows = append(rows, []string{
			d.Label, pct(d.DHRTail.TailFrac),
			pct(d.DHRTail.TailDisposableFrac), pct(d.DHRTail.DisposableTailFrac),
		})
	}
	sb.WriteString(renderTable(header, rows))
	return sb.String()
}

// RenderFig14 prints the disposable TTL histograms for the first and last
// dates (February vs December in the paper).
func (r *GrowthResult) RenderFig14() string {
	var sb strings.Builder
	sb.WriteString("Figure 14 — TTLs of mined disposable RRs (first vs last date)\n")
	if len(r.Dates) == 0 {
		return sb.String()
	}
	for _, d := range []DateResult{r.Dates[0], r.Dates[len(r.Dates)-1]} {
		fmt.Fprintf(&sb, "  %s:", d.Label)
		total := 0
		for _, n := range d.TTLHistogram {
			total += n
		}
		for _, ttl := range []uint32{0, 1, 30, 60, 300, 3600, 86400} {
			fmt.Fprintf(&sb, "  ttl=%d %s", ttl, pct(frac(d.TTLHistogram[ttl], total)))
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("paper: February mode at TTL=1s (28%), December mode at TTL=300s\n")
	return sb.String()
}
