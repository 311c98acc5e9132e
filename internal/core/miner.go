// Package core implements the paper's primary contribution: the disposable
// zone miner (Section V). A day of passive DNS observations becomes a
// domain name tree; the miner walks every effective 2LD with Algorithm 1,
// classifying each same-depth group of black descendants with an 8-feature
// statistical vector, decoloring groups classified as disposable, and
// recursing into child zones. The output is the ranked set of
// (zone, depth) pairs that host disposable domains.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/dntree"
	"dnsnoise/internal/features"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/telemetry"
)

// Errors reported by the miner.
var (
	ErrNoClassifier = errors.New("core: nil classifier")
	ErrNoTree       = errors.New("core: nil domain name tree")
)

// DefaultTheta is the classification threshold of Algorithm 1 line 5. The
// paper reports results for both 0.9 (92.4% TPR / 0.6% FPR) and the default
// 0.5 (97% TPR / 1% FPR).
const DefaultTheta = 0.9

// Finding is one disposable (zone, depth) pair: Algorithm 1's output
// "(z, k_i)" plus the evidence behind it.
type Finding struct {
	// Zone is the zone under inspection when the group was classified.
	Zone string
	// Depth is the tree depth k of the group.
	Depth int
	// Confidence is the classifier's probability for the disposable class.
	Confidence float64
	// Names are the group's domain names (decolored by the miner).
	Names []string
}

// MinerConfig tunes Algorithm 1.
type MinerConfig struct {
	// Theta is the classification threshold (default DefaultTheta).
	Theta float64
	// MinGroupSize skips groups with fewer black nodes; tiny groups carry
	// too little statistical signal for the feature vector (the paper's
	// training floor was 15 disposable domains per zone; classification
	// uses a lower floor since daily group sizes vary). Default 4.
	MinGroupSize int
	// FeatureMask restricts the classifier input to the listed feature
	// indexes, for classifiers trained on a masked set (the serve path's
	// tree-structure-only scorer has no CHR data for live names). Nil uses
	// the full 8-dimensional vector.
	FeatureMask []int
}

func (c *MinerConfig) setDefaults() {
	if c.Theta == 0 {
		c.Theta = DefaultTheta
	}
	if c.MinGroupSize == 0 {
		c.MinGroupSize = 4
	}
}

// Miner runs Algorithm 1 with a trained classifier.
type Miner struct {
	classifier mlearn.Classifier
	cfg        MinerConfig

	// explain, when set via SetExplain, receives one provenance record per
	// classifier decision (see explain.go).
	explain func(ExplainRecord)

	// Telemetry counters; nil (no-op) unless SetMetrics was called. The
	// counters are atomic, so concurrent Mine calls may share them.
	mDecisions  *telemetry.Counter
	mDisposable *telemetry.Counter
}

// SetMetrics registers the miner's classifier-decision counters with reg.
// Call before mining starts.
func (m *Miner) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.mDecisions = reg.Counter("miner_decisions_total",
		"Classifier decisions made over same-depth name groups (a streaming window re-makes those of the zones it touched).")
	m.mDisposable = reg.Counter("miner_disposable_groups_total",
		"Groups classified disposable (Algorithm 1 line 5 positives).")
}

// NewMiner wraps a trained classifier.
func NewMiner(classifier mlearn.Classifier, cfg MinerConfig) (*Miner, error) {
	if classifier == nil {
		return nil, ErrNoClassifier
	}
	cfg.setDefaults()
	return &Miner{classifier: classifier, cfg: cfg}, nil
}

// mineScratch is the working storage of one Mine: what Algorithm 1 builds
// about a group and does not report (names are copied out only into a
// Finding). The scratch belongs to the call, so Mine stays safe to call
// concurrently: a fresh one per batch Mine, the streaming pipeline's own
// across its re-scores.
type mineScratch struct {
	groups  []dntree.Group // G_k sets of the zone under inspection
	zones   []*dntree.Node // stack of child zones still to mine
	samples features.Scratch
	vec     [features.Dim]float64
}

// Mine executes Algorithm 1 over the tree, starting from every effective
// 2LD, decoloring disposable groups as it goes. byName carries the day's
// per-record cache statistics (chrstat.Collector.ByName). The tree is
// mutated (decolored); findings are returned sorted by descending
// confidence, ties broken by group size then zone name.
func (m *Miner) Mine(tree *dntree.Tree, byName map[string][]*chrstat.RRStat) ([]Finding, error) {
	if tree == nil {
		return nil, ErrNoTree
	}
	var findings []Finding
	sc := new(mineScratch)
	tree.TouchAll()
	for _, zone := range tree.Dirty(nil) {
		if err := m.mineZone(tree, byName, zone, sc, &findings); err != nil {
			return nil, err
		}
	}
	sortFindings(findings)
	return findings, nil
}

// sortFindings orders findings as everything reports them. The order is total
// (a mine finds a (zone, depth) once): the order zones were mined in is gone.
func sortFindings(findings []Finding) {
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(
			cmp.Compare(b.Confidence, a.Confidence),
			cmp.Compare(len(b.Names), len(a.Names)),
			cmp.Compare(a.Zone, b.Zone),
			cmp.Compare(a.Depth, b.Depth),
		)
	})
}

// mineZone is the recursive body of Algorithm 1, batch and streaming.
func (m *Miner) mineZone(tree *dntree.Tree, byName map[string][]*chrstat.RRStat, zn *dntree.Node, sc *mineScratch, findings *[]Finding) error {
	// Line 1-3: stop when no black descendants remain.
	if !zn.HasBlackDescendants() {
		return nil
	}
	// Line 4: identify G_k and L_k for every depth under the zone.
	sc.groups = zn.AppendGroups(sc.groups)
	// Lines 6-14: classify each group; decolor and report disposables.
	for i := range sc.groups {
		g := &sc.groups[i]
		if len(g.Names) < m.cfg.MinGroupSize {
			continue
		}
		slice := sc.samples.FromGroup(*g, byName).AppendTo(sc.vec[:0])
		input := slice
		if m.cfg.FeatureMask != nil {
			input = features.Mask(slice, m.cfg.FeatureMask)
		}
		disposable, p, err := mlearn.Predict(m.classifier, input, m.cfg.Theta)
		if err != nil {
			return fmt.Errorf("classify %s depth %d: %w", g.Zone, g.Depth, err)
		}
		m.mDecisions.Inc()
		if m.explain != nil {
			m.explain(m.explainRecord(g.Zone, g.Depth, g.Names, g.Labels, slice, input, p, disposable))
		}
		if !disposable {
			continue
		}
		m.mDisposable.Inc()
		tree.DecolorGroup(g)
		*findings = append(*findings, Finding{
			Zone:       g.Zone,
			Depth:      g.Depth,
			Confidence: p,
			Names:      slices.Clone(g.Names),
		})
	}
	// Lines 15-17: recurse into the remaining child zones. They sit on the
	// shared stack above whatever the callers are still iterating; a deeper
	// call may move the stack but not the entries below its own.
	from := len(sc.zones)
	sc.zones = zn.AppendChildZones(sc.zones)
	for i, to := from, len(sc.zones); i < to; i++ {
		if err := m.mineZone(tree, byName, sc.zones[i], sc, findings); err != nil {
			return err
		}
	}
	sc.zones = sc.zones[:from]
	return nil
}

// BuildTree inserts every successfully resolved owner name from the day's
// statistics into a fresh domain name tree (the Domain Name Tree Builder of
// Figure 10, step 2). Pass nil suffixes for the default ruleset.
func BuildTree(byName map[string][]*chrstat.RRStat, suffixes *dnsname.Suffixes) *dntree.Tree {
	tree := dntree.New(suffixes)
	for name := range byName {
		tree.Insert(name)
	}
	return tree
}

// Matcher answers "is this name disposable, and under which mined zone?"
// from a set of findings. It backs the growth measurements and the pDNS
// wildcard collapse.
type Matcher struct {
	depths map[string]map[int]struct{} // zone -> set of disposable depths
}

// NewMatcher indexes findings.
func NewMatcher(findings []Finding) *Matcher {
	m := &Matcher{depths: make(map[string]map[int]struct{}, len(findings))}
	for _, f := range findings {
		set, ok := m.depths[f.Zone]
		if !ok {
			set = make(map[int]struct{})
			m.depths[f.Zone] = set
		}
		set[f.Depth] = struct{}{}
	}
	return m
}

// Match reports whether name falls in a mined disposable (zone, depth)
// group, returning the covering zone.
func (m *Matcher) Match(name string) (string, bool) {
	name = dnsname.Normalize(name)
	depth := dnsname.Depth(name)
	for probe := dnsname.Parent(name); probe != ""; probe = dnsname.Parent(probe) {
		if set, ok := m.depths[probe]; ok {
			if _, hit := set[depth]; hit {
				return probe, true
			}
		}
	}
	return "", false
}

// Zones returns the distinct mined zones, sorted.
func (m *Matcher) Zones() []string {
	out := make([]string, 0, len(m.depths))
	for z := range m.depths {
		out = append(out, z)
	}
	sort.Strings(out)
	return out
}

// Report aggregates findings into the Figure 11 style summary.
type Report struct {
	// Zones is the number of distinct disposable (zone, depth) pairs
	// aggregated by zone.
	Zones int
	// E2LDs is the number of distinct registrable domains hosting them.
	E2LDs int
	// Names is the total number of decolored disposable names.
	Names int
	// MeanPeriods is the average number of periods in a disposable name
	// (the paper reports 7).
	MeanPeriods float64
}

// Summarize computes the report for a set of findings.
func Summarize(findings []Finding, suffixes *dnsname.Suffixes) Report {
	if suffixes == nil {
		suffixes = dnsname.DefaultSuffixes()
	}
	zones := make(map[string]struct{})
	e2lds := make(map[string]struct{})
	var names, periods int
	for _, f := range findings {
		zones[f.Zone] = struct{}{}
		if e := suffixes.ETLDPlusOne(f.Zone); e != "" {
			e2lds[e] = struct{}{}
		}
		for _, n := range f.Names {
			names++
			periods += dnsname.CountLabels(n) - 1
		}
	}
	rep := Report{
		Zones: len(zones),
		E2LDs: len(e2lds),
		Names: names,
	}
	if names > 0 {
		rep.MeanPeriods = float64(periods) / float64(names)
	}
	return rep
}
