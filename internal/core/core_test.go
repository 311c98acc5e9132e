package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/labelgen"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/workload"
)

// synthCollector fabricates a day: nDisp disposable zones with one-shot
// algorithmic names, nNorm normal zones with hot human names. Returns the
// collector and the ground-truth zone labels.
func synthCollector(seed int64, nDisp, nNorm, namesPerZone int) (*chrstat.Collector, map[string]bool) {
	rng := rand.New(rand.NewSource(seed))
	c := chrstat.NewCollector()
	labels := make(map[string]bool)
	below := resolver.TapFunc(c.ObserveBelow)
	above := resolver.TapFunc(c.ObserveAbove)

	emit := func(name string, cat cache.Category, queries, misses int) {
		rr := dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 60,
			RData: dnsmsg.IPv4(198, 18, 0, byte(rng.Intn(255)))}
		ob := resolver.Observation{QName: name, RR: rr, RCode: dnsmsg.RCodeNoError, Category: cat}
		for i := 0; i < queries; i++ {
			below.Observe(ob)
		}
		for i := 0; i < misses; i++ {
			above.Observe(ob)
		}
	}

	for z := 0; z < nDisp; z++ {
		zone := fmt.Sprintf("sig%d.%s.com", z, labelgen.HumanWord(rng, 6))
		labels[zone] = true
		for i := 0; i < namesPerZone; i++ {
			name := string(labelgen.AppendToken(nil, rng, 20)) + "." + zone
			emit(name, cache.CategoryDisposable, 1, 1)
		}
	}
	for z := 0; z < nNorm; z++ {
		zone := fmt.Sprintf("%s%d.com", labelgen.HumanWord(rng, 6), z)
		labels[zone] = false
		for i := 0; i < namesPerZone; i++ {
			name := labelgen.HostName(rng) + "." + zone
			emit(name, cache.CategoryOther, 10+rng.Intn(40), 1+rng.Intn(2))
		}
	}
	return c, labels
}

func TestNewMinerValidation(t *testing.T) {
	if _, err := NewMiner(nil, MinerConfig{}); !errors.Is(err, ErrNoClassifier) {
		t.Errorf("NewMiner(nil) = %v, want ErrNoClassifier", err)
	}
	m, err := NewMiner(mlearn.NewDecisionTree(), MinerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mine(nil, nil); !errors.Is(err, ErrNoTree) {
		t.Errorf("Mine(nil tree) = %v, want ErrNoTree", err)
	}
}

func TestBuildTree(t *testing.T) {
	c, _ := synthCollector(1, 2, 2, 10)
	byName := c.ByName()
	tree := BuildTree(byName, nil)
	if black := len(tree.NamesUnder("")); black != len(byName) {
		t.Errorf("%d black names, want %d", black, len(byName))
	}
}

func TestBuildTrainingSetLabelsAndSizes(t *testing.T) {
	c, labels := synthCollector(2, 3, 3, 12)
	byName := c.ByName()
	tree := BuildTree(byName, nil)
	examples := BuildTrainingSet(tree, byName, labels, TrainingConfig{MinGroupSize: 5})
	if len(examples) == 0 {
		t.Fatal("no examples")
	}
	var pos, neg int
	for _, ex := range examples {
		if ex.Disposable {
			pos++
		} else {
			neg++
		}
		if len(ex.Features) != 8 {
			t.Fatalf("feature dim = %d", len(ex.Features))
		}
	}
	if pos == 0 || neg == 0 {
		t.Errorf("examples pos=%d neg=%d, want both classes", pos, neg)
	}
}

func TestBuildTrainingSetRespectsMinGroup(t *testing.T) {
	c, labels := synthCollector(3, 2, 2, 3) // groups of 3
	byName := c.ByName()
	tree := BuildTree(byName, nil)
	examples := BuildTrainingSet(tree, byName, labels, TrainingConfig{MinGroupSize: 10})
	if len(examples) != 0 {
		t.Errorf("examples = %d, want 0 under MinGroupSize=10", len(examples))
	}
}

func TestTrainClassifierErrors(t *testing.T) {
	if _, err := TrainClassifier(nil, TrainingConfig{}); !errors.Is(err, ErrNoExamples) {
		t.Errorf("TrainClassifier(empty) = %v, want ErrNoExamples", err)
	}
	c, labels := synthCollector(4, 2, 0, 10) // single class
	for zone := range labels {
		if !labels[zone] {
			delete(labels, zone)
		}
	}
	byName := c.ByName()
	tree := BuildTree(byName, nil)
	examples := BuildTrainingSet(tree, byName, labels, TrainingConfig{})
	if _, err := TrainClassifier(examples, TrainingConfig{}); !errors.Is(err, ErrNoExamples) {
		t.Errorf("single-class train = %v, want ErrNoExamples", err)
	}
}

// The core end-to-end property: train on one synthetic population, mine a
// disjoint one, and verify zone-level accuracy.
func TestMineFindsDisposableZones(t *testing.T) {
	trainC, trainLabels := synthCollector(10, 20, 20, 15)
	trainByName := trainC.ByName()
	trainTree := BuildTree(trainByName, nil)
	examples := BuildTrainingSet(trainTree, trainByName, trainLabels, TrainingConfig{})
	clf, err := TrainClassifier(examples, TrainingConfig{})
	if err != nil {
		t.Fatal(err)
	}

	testC, testLabels := synthCollector(99, 15, 15, 15)
	testByName := testC.ByName()
	testTree := BuildTree(testByName, nil)
	miner, err := NewMiner(clf, MinerConfig{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := miner.Mine(testTree, testByName)
	if err != nil {
		t.Fatal(err)
	}

	found := make(map[string]bool)
	for _, f := range findings {
		found[f.Zone] = true
	}
	var tp, fn, fp int
	for zone, disp := range testLabels {
		if disp && found[zone] {
			tp++
		}
		if disp && !found[zone] {
			fn++
		}
		if !disp && found[zone] {
			fp++
		}
	}
	if tpr := float64(tp) / float64(tp+fn); tpr < 0.85 {
		t.Errorf("zone-level TPR = %.2f (tp=%d fn=%d), want >= 0.85", tpr, tp, fn)
	}
	if fp > 2 {
		t.Errorf("false positive zones = %d, want <= 2", fp)
	}

	// Findings must be sorted by descending confidence.
	for i := 1; i < len(findings); i++ {
		if findings[i].Confidence > findings[i-1].Confidence {
			t.Fatal("findings not sorted by confidence")
		}
	}
	// Mined names must be decolored.
	black := testTree.NamesUnder("")
	for _, f := range findings {
		for _, name := range f.Names {
			if slices.Contains(black, name) {
				t.Fatalf("name %q still black after mining", name)
			}
		}
	}
}

func TestMinerRecursesIntoSubZones(t *testing.T) {
	// Disposable names live two levels below the e2LD (like
	// avqs.mcafee.com under mcafee.com): the miner must find them by
	// recursion even though the e2LD-level group looks benign.
	rng := rand.New(rand.NewSource(20))
	c := chrstat.NewCollector()
	below, above := resolver.TapFunc(c.ObserveBelow), resolver.TapFunc(c.ObserveAbove)
	labels := make(map[string]bool)

	mkRR := func(name string) dnsmsg.RR {
		return dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.IPv4(127, 0, 0, 1)}
	}
	// Training zones: direct children.
	for z := 0; z < 12; z++ {
		zone := fmt.Sprintf("t%d.traindisp.com", z)
		labels[zone] = true
		for i := 0; i < 12; i++ {
			ob := resolver.Observation{QName: "x", RR: mkRR(string(labelgen.AppendToken(nil, rng, 22)) + "." + zone), RCode: dnsmsg.RCodeNoError, Category: cache.CategoryDisposable}
			below.Observe(ob)
			above.Observe(ob)
		}
		norm := fmt.Sprintf("n%d.trainok.com", z)
		labels[norm] = false
		for i := 0; i < 12; i++ {
			ob := resolver.Observation{QName: "x", RR: mkRR(labelgen.HostName(rng) + "." + norm), RCode: dnsmsg.RCodeNoError, Category: cache.CategoryOther}
			for j := 0; j < 20; j++ {
				below.Observe(ob)
			}
			above.Observe(ob)
		}
	}
	// Target: disposable names under a deep sub-zone.
	const deepZone = "avqs.vendor-av.com"
	for i := 0; i < 20; i++ {
		ob := resolver.Observation{QName: "x", RR: mkRR(string(labelgen.AppendToken(nil, rng, 26)) + "." + deepZone), RCode: dnsmsg.RCodeNoError, Category: cache.CategoryDisposable}
		below.Observe(ob)
		above.Observe(ob)
	}
	// And a benign www under the same e2LD.
	wwwOb := resolver.Observation{QName: "x", RR: mkRR("www.vendor-av.com"), RCode: dnsmsg.RCodeNoError, Category: cache.CategoryOther}
	for j := 0; j < 50; j++ {
		below.Observe(wwwOb)
	}
	above.Observe(wwwOb)

	byName := c.ByName()
	tree := BuildTree(byName, nil)
	examples := BuildTrainingSet(tree, byName, labels, TrainingConfig{})
	clf, err := TrainClassifier(examples, TrainingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	miner, err := NewMiner(clf, MinerConfig{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := miner.Mine(tree, byName)
	if err != nil {
		t.Fatal(err)
	}
	foundDeep := false
	for _, f := range findings {
		if f.Zone == deepZone || (f.Zone == "vendor-av.com" && f.Depth == 4) {
			foundDeep = true
		}
		for _, n := range f.Names {
			if n == "www.vendor-av.com" {
				t.Error("www.vendor-av.com misclassified as disposable")
			}
		}
	}
	if !foundDeep {
		t.Errorf("deep disposable zone not found; findings = %+v", findings)
	}
}

func TestMatcher(t *testing.T) {
	findings := []Finding{
		{Zone: "avqs.mcafee.com", Depth: 12, Confidence: 0.99},
		{Zone: "d.test", Depth: 3, Confidence: 0.95},
	}
	m := NewMatcher(findings)
	if zone, ok := m.Match("tok1.d.test"); !ok || zone != "d.test" {
		t.Errorf("Match = (%q, %v)", zone, ok)
	}
	// Right zone, wrong depth.
	if _, ok := m.Match("a.b.d.test"); ok {
		t.Error("wrong-depth name should not match")
	}
	if _, ok := m.Match("www.other.test"); ok {
		t.Error("unrelated name should not match")
	}
	zones := m.Zones()
	if len(zones) != 2 || zones[0] != "avqs.mcafee.com" {
		t.Errorf("Zones = %v", zones)
	}
}

func TestSummarize(t *testing.T) {
	findings := []Finding{
		{Zone: "avqs.mcafee.com", Depth: 12, Names: []string{
			"0.0.0.0.1.0.0.4e.aaaa.avqs.mcafee.com",
		}},
		{Zone: "gti.mcafee.com", Depth: 4, Names: []string{"x.gti.mcafee.com", "y.gti.mcafee.com"}},
		{Zone: "d.test", Depth: 3, Names: []string{"tok.d.test"}},
	}
	rep := Summarize(findings, nil)
	if rep.Zones != 3 {
		t.Errorf("Zones = %d, want 3", rep.Zones)
	}
	if rep.E2LDs != 2 {
		t.Errorf("E2LDs = %d, want 2 (mcafee.com, d.test)", rep.E2LDs)
	}
	if rep.Names != 4 {
		t.Errorf("Names = %d, want 4", rep.Names)
	}
	// Periods: 11 + 3 + 3 + 2 = 19 over 4 names.
	if rep.MeanPeriods != 19.0/4 {
		t.Errorf("MeanPeriods = %v, want 4.75", rep.MeanPeriods)
	}
	empty := Summarize(nil, nil)
	if empty.Zones != 0 || empty.MeanPeriods != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestEvaluateClassifierROC(t *testing.T) {
	c, labels := synthCollector(30, 25, 25, 15)
	byName := c.ByName()
	tree := BuildTree(byName, nil)
	examples := BuildTrainingSet(tree, byName, labels, TrainingConfig{})
	res, err := EvaluateClassifier(examples, 10, TrainingConfig{}, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	if auc := res.AUC(); auc < 0.9 {
		t.Errorf("AUC = %.3f, want >= 0.9 on cleanly separated classes", auc)
	}
	conf := res.ConfusionAt(0.5)
	if conf.TPR() < 0.9 || conf.FPR() > 0.1 {
		t.Errorf("theta=0.5 confusion = %v", conf)
	}
}

// Full-pipeline smoke test against the real simulator: generate a day,
// resolve it, mine it, and require that the flagship disposable zones are
// discovered with few false positives.
func TestEndToEndSimulatedDay(t *testing.T) {
	reg := workload.NewRegistry(workload.RegistryConfig{
		Seed:               55,
		NonDisposableZones: 60,
		DisposableZones:    40,
		HostsPerZoneMax:    24,
	})
	srv, err := reg.BuildAuthority(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := resolver.NewCluster(srv, resolver.WithServers(2), resolver.WithCacheSize(1<<15))
	if err != nil {
		t.Fatal(err)
	}
	collector := chrstat.NewCollector()
	cluster.SetTaps(resolver.TapFunc(collector.ObserveBelow), resolver.TapFunc(collector.ObserveAbove))

	gen := workload.NewGenerator(reg, workload.GeneratorConfig{Seed: 56, Clients: 400, BaseEventsPerDay: 60000})
	profile := workload.DecemberProfile(time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC))
	day := gen.StartDay(profile)
	for q, ok := day.Next(); ok; q, ok = day.Next() {
		if _, err := cluster.Resolve(q); err != nil {
			t.Fatal(err)
		}
	}

	byName := collector.ByName()
	tree := BuildTree(byName, nil)
	labels := reg.GroundTruth()
	examples := BuildTrainingSet(tree, byName, labels, TrainingConfig{})
	clf, err := TrainClassifier(examples, TrainingConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Mine a fresh tree (training decolored nothing, but keep it clean).
	tree = BuildTree(byName, nil)
	miner, err := NewMiner(clf, MinerConfig{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := miner.Mine(tree, byName)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("no findings on a simulated day")
	}
	matcher := NewMatcher(findings)
	// The flagship McAfee zone must be discovered.
	foundMcafee := false
	for _, z := range matcher.Zones() {
		if z == "avqs.mcafee.com" || z == "mcafee.com" {
			foundMcafee = true
		}
	}
	if !foundMcafee {
		t.Errorf("flagship avqs.mcafee.com not mined; zones = %v", matcher.Zones())
	}
	// Zone-level false positives against ground truth must be rare.
	fp := 0
	for _, z := range matcher.Zones() {
		if disp, known := labels[z]; known && !disp {
			fp++
		}
	}
	if fp > len(matcher.Zones())/5 {
		t.Errorf("%d of %d mined zones are labeled non-disposable", fp, len(matcher.Zones()))
	}
}
