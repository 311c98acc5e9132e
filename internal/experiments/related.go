package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dnsnoise/internal/baseline"
	"dnsnoise/internal/cache"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/renewal"
	"dnsnoise/internal/stats"
)

// --- Jung et al. renewal model vs black-box measurement -------------------

// RenewalResult compares the TTL renewal model's predicted hit rates with
// the black-box DHR measurements (Section II-B3's methodological argument).
type RenewalResult struct {
	Compare renewal.Compare
	// HotCompare restricts the comparison to records with enough queries
	// for the observed rate to be meaningful (>= 20 lookups).
	HotCompare renewal.Compare
}

// RenewalModel fits the Poisson renewal model to each record's observed
// query rate and TTL on the reference day, and compares against the
// measured DHR. The paper argues the single-shared-cache assumption breaks
// at a resolver cluster; the hot-record correlation quantifies how much
// signal survives anyway.
func (r *Run) RenewalModel() (*RenewalResult, error) {
	d, err := r.refDay()
	if err != nil {
		return nil, err
	}
	servers := float64(d.servers)
	const daySeconds = 86400.0
	var all, hot []renewal.Prediction
	for _, st := range d.collector.Records() {
		if st.Below == 0 || st.TTL == 0 {
			continue
		}
		lambda := float64(st.Below) / daySeconds
		predicted, err := renewal.HitRatePoisson(lambda, float64(st.TTL))
		if err != nil {
			continue
		}
		// The model describes ONE cache; the cluster splits each record's
		// stream across N servers, cutting the effective per-cache rate —
		// apply the correction the paper says an outside observer cannot
		// make reliably.
		predicted, err = renewal.HitRatePoisson(lambda/servers, float64(st.TTL))
		if err != nil {
			continue
		}
		p := renewal.Prediction{
			Name:      st.Name,
			Lambda:    lambda,
			TTL:       float64(st.TTL),
			Predicted: predicted,
			Measured:  st.DHR(),
		}
		all = append(all, p)
		if st.Below >= 20 {
			hot = append(hot, p)
		}
	}
	return &RenewalResult{
		Compare:    renewal.Summarize(all),
		HotCompare: renewal.Summarize(hot),
	}, nil
}

// Render prints the comparison.
func (r *RenewalResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Jung et al. TTL renewal model vs black-box measurement (Section II-B3)\n")
	fmt.Fprintf(&sb, "  all records (n=%d): model mean %.3f vs measured %.3f, MAE %.3f, correlation %.3f\n",
		r.Compare.N, r.Compare.MeanPredicted, r.Compare.MeanMeasured,
		r.Compare.MeanAbsErr, r.Compare.Correlation)
	fmt.Fprintf(&sb, "  hot records >=20 lookups (n=%d): model mean %.3f vs measured %.3f, MAE %.3f, correlation %.3f\n",
		r.HotCompare.N, r.HotCompare.MeanPredicted, r.HotCompare.MeanMeasured,
		r.HotCompare.MeanAbsErr, r.HotCompare.Correlation)
	sb.WriteString("  the per-record model tracks hot records but needs the cluster split and\n")
	sb.WriteString("  per-record arrival processes the ISP vantage cannot observe — the paper's\n")
	sb.WriteString("  rationale for measuring the cluster as a black box\n")
	return sb.String()
}

// --- Plonka treetop taxonomy vs disposable class ---------------------------

// TaxonomyResult measures the overlap between the treetop classes and the
// disposable population (Section II-B1: "Disposable domains are more
// general than the overloaded class").
type TaxonomyResult struct {
	CanonicalShare  float64
	OverloadedShare float64
	UnwantedShare   float64
	// Of the ground-truth disposable observations, the share landing in
	// each treetop class.
	DisposableInOverloaded float64
	DisposableInCanonical  float64
}

// Taxonomy classifies the reference day's below-traffic with the treetop
// rules.
func (r *Run) Taxonomy() (*TaxonomyResult, error) {
	d, err := r.refDay()
	if err != nil {
		return nil, err
	}
	tc := &d.taxonomy
	return &TaxonomyResult{
		CanonicalShare:         tc.Share(baseline.Canonical),
		OverloadedShare:        tc.Share(baseline.Overloaded),
		UnwantedShare:          tc.Share(baseline.Unwanted),
		DisposableInOverloaded: tc.DisposableRecall(baseline.Overloaded),
		DisposableInCanonical:  tc.DisposableRecall(baseline.Canonical),
	}, nil
}

// Render prints the class shares and the overlap argument.
func (r *TaxonomyResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Plonka/Barford treetop taxonomy vs the disposable class (Section II-B1)\n")
	fmt.Fprintf(&sb, "  traffic shares: canonical %s, overloaded %s, unwanted %s\n",
		pct(r.CanonicalShare), pct(r.OverloadedShare), pct(r.UnwantedShare))
	fmt.Fprintf(&sb, "  disposable observations captured by 'overloaded': %s; classified canonical: %s\n",
		pct(r.DisposableInOverloaded), pct(r.DisposableInCanonical))
	sb.WriteString("  a large disposable share looks canonical (routable answers), confirming the\n")
	sb.WriteString("  paper: disposable is strictly more general than overloaded\n")
	return sb.String()
}

// --- Yadav et al. name-only detector vs the miner --------------------------

// BaselineResult scores zone-level detection for the Yadav detector and the
// miner on the same day, against ground truth.
type BaselineResult struct {
	Zones    int
	YadavTPR float64
	YadavFPR float64
	MinerTPR float64
	MinerFPR float64
	// The CDN trap: algorithmic names that are REUSED. Yadav judges whole
	// zones by name shape; the miner judges groups by caching behaviour,
	// so hot CDN names must survive even when cold shards of the same
	// zones look disposable (a false-positive class the paper itself
	// reports for 0.6% of its zones).
	CDNZones            int
	CDNFlaggedYadav     int
	HotCDNNames         int // CDN names with real cache reuse (DHR >= 0.3)
	HotCDNFlaggedMiner  int // of those, marked disposable by the miner
	ColdCDNNames        int
	ColdCDNFlaggedMiner int
}

// Baseline runs both detectors over the reference day. Both train on the
// same labeled zones; Yadav sees only the name strings, the miner sees
// names plus caching behaviour.
func (r *Run) Baseline() (*BaselineResult, error) {
	d, err := r.refDay()
	if err != nil {
		return nil, err
	}
	env := d.env
	tree := core.BuildTree(d.byName, env.Suffixes)
	labels := env.TrainingLabels()

	// Gather each labeled zone's observed names.
	namesUnder := func(zone string) []string { return tree.NamesUnder(zone) }
	var trainZones []baseline.LabeledZoneNames
	for zone, disp := range labels {
		names := namesUnder(zone)
		if len(names) < 5 {
			continue
		}
		trainZones = append(trainZones, baseline.LabeledZoneNames{
			Zone: zone, Names: names, Disposable: disp,
		})
	}
	sort.Slice(trainZones, func(i, j int) bool { return trainZones[i].Zone < trainZones[j].Zone })

	var yadav baseline.YadavDetector
	if err := yadav.Fit(trainZones); err != nil {
		return nil, fmt.Errorf("fit yadav: %w", err)
	}
	findings, err := d.findings()
	if err != nil {
		return nil, err
	}
	matcher := core.NewMatcher(findings)
	minerFlags := func(zone string) bool {
		for _, name := range namesUnder(zone) {
			if _, ok := matcher.Match(name); ok {
				return true
			}
		}
		return false
	}

	res := &BaselineResult{}
	var yTP, yFN, yFP, yTN, mTP, mFN, mFP, mTN int
	for _, z := range trainZones {
		res.Zones++
		yGot, _, err := yadav.Detect(z.Zone, z.Names)
		if err != nil {
			return nil, err
		}
		mGot := minerFlags(z.Zone)
		if z.Disposable {
			if yGot {
				yTP++
			} else {
				yFN++
			}
			if mGot {
				mTP++
			} else {
				mFN++
			}
		} else {
			if yGot {
				yFP++
			} else {
				yTN++
			}
			if mGot {
				mFP++
			} else {
				mTN++
			}
		}
	}
	res.YadavTPR = frac(yTP, yTP+yFN)
	res.YadavFPR = frac(yFP, yFP+yTN)
	res.MinerTPR = frac(mTP, mTP+mFN)
	res.MinerFPR = frac(mFP, mFP+mTN)

	// The CDN trap: algorithmic but reused names. Yadav flags whole zones;
	// the miner is scored per name, split by observed popularity.
	cdnZone := func(name string) bool {
		for _, spec := range env.Registry.CDN {
			if name == spec.Zone || strings.HasSuffix(name, "."+spec.Zone) {
				return true
			}
		}
		return false
	}
	for _, spec := range env.Registry.CDN {
		names := namesUnder(spec.Zone)
		if len(names) < 5 {
			continue
		}
		res.CDNZones++
		if flagged, _, err := yadav.Detect(spec.Zone, names); err == nil && flagged {
			res.CDNFlaggedYadav++
		}
	}
	for _, st := range d.collector.Records() {
		if !cdnZone(st.Name) {
			continue
		}
		_, flagged := matcher.Match(st.Name)
		// "Hot" means the cache actually reused the record, not merely
		// that it was asked often: a 2-minute-TTL name queried 30 times a
		// day never hits and is, operationally, disposable in this
		// network — exactly the paper's Section IV framing.
		if st.DHR() >= 0.3 {
			res.HotCDNNames++
			if flagged {
				res.HotCDNFlaggedMiner++
			}
		} else {
			res.ColdCDNNames++
			if flagged {
				res.ColdCDNFlaggedMiner++
			}
		}
	}
	return res, nil
}

// Render prints the head-to-head.
func (r *BaselineResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Yadav et al. name-only detector vs the disposable zone miner (Section II-B2)\n")
	header := []string{"detector", "zone TPR", "zone FPR"}
	rows := [][]string{
		{"yadav (names only)", pct(r.YadavTPR), pct(r.YadavFPR)},
		{"miner (names + CHR)", pct(r.MinerTPR), pct(r.MinerFPR)},
	}
	sb.WriteString(renderTable(header, rows))
	fmt.Fprintf(&sb, "over %d labeled zones\n", r.Zones)
	fmt.Fprintf(&sb, "CDN trap: yadav condemns %d/%d whole CDN zones by name shape;\n",
		r.CDNFlaggedYadav, r.CDNZones)
	fmt.Fprintf(&sb, "the miner marks %d/%d reused (DHR>=0.3) CDN names disposable vs %d/%d unreused ones —\n",
		r.HotCDNFlaggedMiner, r.HotCDNNames, r.ColdCDNFlaggedMiner, r.ColdCDNNames)
	sb.WriteString("caching behaviour, not name shape, draws the line (cold-shard flags mirror the\n")
	sb.WriteString("paper's own 0.6% CDN false-positive class)\n")
	return sb.String()
}

// --- Client cardinality: "queried by a handful of clients" -----------------

// ClientsResult measures per-record distinct-client counts by class — the
// introduction's claim that disposable names are "only queried a few times
// by a handful of clients".
type ClientsResult struct {
	DisposableMedian    float64
	NonDisposableMedian float64
	// DisposableHandful is the fraction of disposable RRs queried by at
	// most 3 distinct clients.
	DisposableHandful    float64
	NonDisposableHandful float64
}

// ClientCardinality splits the reference day's distinct-client
// distribution by ground-truth class.
func (r *Run) ClientCardinality() (*ClientsResult, error) {
	d, err := r.refDay()
	if err != nil {
		return nil, err
	}
	collector := d.collector
	isDisp := func(st *chrstat.RRStat) bool { return st.Category == cache.CategoryDisposable }
	isNot := func(st *chrstat.RRStat) bool { return st.Category != cache.CategoryDisposable }
	disp := collector.ClientCounts(isDisp)
	non := collector.ClientCounts(isNot)
	return &ClientsResult{
		DisposableMedian:     stats.Median(disp),
		NonDisposableMedian:  stats.Median(non),
		DisposableHandful:    stats.FractionLeq(disp, 3),
		NonDisposableHandful: stats.FractionLeq(non, 3),
	}, nil
}

// Render prints the cardinality comparison.
func (r *ClientsResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Client cardinality — \"queried by a handful of clients\" (Section I)\n")
	fmt.Fprintf(&sb, "  median distinct clients per RR: disposable %.0f, non-disposable %.0f\n",
		r.DisposableMedian, r.NonDisposableMedian)
	fmt.Fprintf(&sb, "  RRs queried by <=3 clients: disposable %s, non-disposable %s\n",
		pct(r.DisposableHandful), pct(r.NonDisposableHandful))
	return sb.String()
}
