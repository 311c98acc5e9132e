// Package dnsnoise is the public API of the disposable-domain miner from
// "DNS Noise: Measuring the Pervasiveness of Disposable Domains in Modern
// DNS Traffic" (DSN 2014).
//
// The workflow mirrors the paper's Figure 10: collect one observation
// window of passive DNS data from both sides of a recursive resolver
// cluster into a Dataset, train a Classifier on zones with known labels,
// and Mine the dataset for the DNS zones hosting disposable domains.
//
//	ds := dnsnoise.NewDataset()
//	// feed answer-section records observed below and above the resolvers
//	ds.AddBelow(rec)
//	ds.AddAbove(rec)
//
//	clf, _ := dnsnoise.Train(ds, labeled, dnsnoise.TrainOptions{})
//	findings, _ := clf.Mine(ds, dnsnoise.MineOptions{Theta: 0.9})
//
// Everything below the API (the DNS wire codec, resolver-cluster and
// authority simulators, workload generator, and the experiment harness that
// regenerates the paper's tables and figures) lives under internal/ and is
// exercised by the programs under cmd/.
package dnsnoise

import (
	"errors"
	"fmt"
	"time"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/resolver"
)

// Errors returned by the public API.
var (
	// ErrNoLabels indicates Train was called without usable labeled zones.
	ErrNoLabels = errors.New("dnsnoise: no labeled zones")
	// ErrEmptyDataset indicates an observation window with no records.
	ErrEmptyDataset = errors.New("dnsnoise: empty dataset")
)

// Record is one answer-section resource record observed at a resolver
// monitoring point, in the shape of the paper's fpDNS tuples.
type Record struct {
	// Time is the resolution instant (second granularity suffices).
	Time time.Time
	// QName is the name whose resolution produced this record.
	QName string
	// Name, Type, TTL and RData describe the resource record itself.
	// Type is the textual mnemonic: "A", "AAAA", "CNAME", ...
	Name  string
	Type  string
	TTL   uint32
	RData string
}

// LabeledZone is a zone with a known classification, used for training.
type LabeledZone struct {
	Zone       string
	Disposable bool
}

// Finding is one mined disposable (zone, depth) pair.
type Finding struct {
	// Zone is the DNS zone hosting the disposable group.
	Zone string
	// Depth is the domain-name-tree depth of the group's names (the number
	// of labels; "a.example.com" has depth 3).
	Depth int
	// Confidence is the classifier probability for the disposable class.
	Confidence float64
	// Names are the group's observed domain names.
	Names []string
}

// Report summarizes a set of findings.
type Report struct {
	Zones       int     // distinct disposable zones
	E2LDs       int     // distinct registrable domains hosting them
	Names       int     // disposable names observed
	MeanPeriods float64 // average periods per disposable name
}

// Dataset accumulates one observation window (typically a day) of passive
// DNS records. It is not safe for concurrent use.
type Dataset struct {
	collector *chrstat.Collector
}

// NewDataset returns an empty observation window.
func NewDataset() *Dataset {
	return &Dataset{collector: chrstat.NewCollector()}
}

// AddBelow records an answer observed below the resolvers (resolver to
// client). Unknown record types are rejected, and so is rdata that is not
// valid for its type (an A record's RData must be a dotted quad).
func (d *Dataset) AddBelow(rec Record) error {
	return d.add(rec, true)
}

// AddAbove records an answer observed above the resolvers (authority to
// resolver) — each above observation is a cache miss.
func (d *Dataset) AddAbove(rec Record) error {
	return d.add(rec, false)
}

func (d *Dataset) add(rec Record, below bool) error {
	typ, err := dnsmsg.ParseType(rec.Type)
	if err != nil {
		return fmt.Errorf("dnsnoise: %w", err)
	}
	rdata, err := dnsmsg.ParseRData(typ, rec.RData)
	if err != nil {
		return fmt.Errorf("dnsnoise: %s rdata %q: %w", rec.Type, rec.RData, err)
	}
	ob := resolver.Observation{
		Time:  rec.Time,
		QName: dnsname.Normalize(rec.QName),
		RR: dnsmsg.RR{
			Name:  dnsname.Normalize(rec.Name),
			Type:  typ,
			Class: dnsmsg.ClassIN,
			TTL:   rec.TTL,
			RData: rdata,
		},
		RCode: dnsmsg.RCodeNoError,
	}
	if below {
		d.collector.ObserveBelow(ob)
	} else {
		d.collector.ObserveAbove(ob)
	}
	return nil
}

// NumRecords returns the number of distinct resource records observed.
func (d *Dataset) NumRecords() int { return d.collector.NumRecords() }

// TrainOptions tunes classifier training.
type TrainOptions struct {
	// MinGroupSize is the minimum number of names a same-depth group needs
	// to become a training example (default 5).
	MinGroupSize int
}

// MineOptions tunes Algorithm 1.
type MineOptions struct {
	// Theta is the classification confidence threshold (default 0.9, the
	// paper's conservative operating point; 0.5 trades false positives for
	// recall).
	Theta float64
	// MinGroupSize skips groups smaller than this (default 4).
	MinGroupSize int
}

// Classifier is a trained disposable-domain classifier.
type Classifier struct {
	tree *mlearn.DecisionTree
}

// Train builds the domain-name tree from the dataset, extracts feature
// vectors for every labeled zone's groups, and fits the decision-tree
// classifier.
func Train(d *Dataset, labeled []LabeledZone, opts TrainOptions) (*Classifier, error) {
	if d == nil || d.NumRecords() == 0 {
		return nil, ErrEmptyDataset
	}
	if len(labeled) == 0 {
		return nil, ErrNoLabels
	}
	labels := make(map[string]bool, len(labeled))
	for _, lz := range labeled {
		labels[dnsname.Normalize(lz.Zone)] = lz.Disposable
	}
	byName := d.collector.ByName()
	tree := core.BuildTree(byName, nil)
	cfg := core.TrainingConfig{MinGroupSize: opts.MinGroupSize}
	examples := core.BuildTrainingSet(tree, byName, labels, cfg)
	clf, err := core.TrainClassifier(examples, cfg)
	if err != nil {
		return nil, fmt.Errorf("dnsnoise: %w", err)
	}
	return &Classifier{tree: clf}, nil
}

// Mine runs Algorithm 1 over the dataset and returns the disposable zone
// findings, ranked by confidence.
func (c *Classifier) Mine(d *Dataset, opts MineOptions) ([]Finding, error) {
	if d == nil || d.NumRecords() == 0 {
		return nil, ErrEmptyDataset
	}
	if c.tree == nil {
		return nil, errors.New("dnsnoise: classifier not initialized via Train")
	}
	miner, err := core.NewMiner(c.tree, core.MinerConfig{
		Theta:        opts.Theta,
		MinGroupSize: opts.MinGroupSize,
	})
	if err != nil {
		return nil, fmt.Errorf("dnsnoise: %w", err)
	}
	byName := d.collector.ByName()
	tree := core.BuildTree(byName, nil)
	inner, err := miner.Mine(tree, byName)
	if err != nil {
		return nil, fmt.Errorf("dnsnoise: %w", err)
	}
	out := make([]Finding, len(inner))
	for i, f := range inner {
		out[i] = Finding{Zone: f.Zone, Depth: f.Depth, Confidence: f.Confidence, Names: f.Names}
	}
	return out, nil
}

// Summarize aggregates findings into the Figure 11 style report.
func Summarize(findings []Finding) Report {
	inner := make([]core.Finding, len(findings))
	for i, f := range findings {
		inner[i] = core.Finding{Zone: f.Zone, Depth: f.Depth, Confidence: f.Confidence, Names: f.Names}
	}
	rep := core.Summarize(inner, nil)
	return Report{
		Zones:       rep.Zones,
		E2LDs:       rep.E2LDs,
		Names:       rep.Names,
		MeanPeriods: rep.MeanPeriods,
	}
}

// IsDisposable reports whether name falls inside any mined (zone, depth)
// group of findings.
func IsDisposable(findings []Finding, name string) bool {
	inner := make([]core.Finding, len(findings))
	for i, f := range findings {
		inner[i] = core.Finding{Zone: f.Zone, Depth: f.Depth}
	}
	_, ok := core.NewMatcher(inner).Match(name)
	return ok
}
