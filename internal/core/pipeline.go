package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/telemetry"
)

// Pipeline is the daily disposable zone ranking process of Figure 10: each
// day's full passive DNS dataset flows through the Domain Name Tree Builder
// and the Disposable Domain Classifier, and the discovered (zone, depth)
// pairs accumulate into a ranking across days — the process that produced
// the paper's 14,488 zones over 11 months.
type Pipeline struct {
	miner    *Miner
	suffixes *dnsname.Suffixes

	// mu guards the cumulative ranking, so Days/Ranking/Summary (and
	// metric gauges) may be read while a fold is in flight.
	mu    sync.Mutex
	days  int
	zones map[string]*ZoneRecord

	// Telemetry counter; nil (no-op) unless SetMetrics was called.
	mFindings *telemetry.Counter
}

// SetMetrics registers the pipeline's ranking metrics with reg: findings
// folded so far plus gauges for processed days and distinct zones. Call
// before processing starts.
func (p *Pipeline) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p.mFindings = reg.Counter("pipeline_findings_total",
		"Disposable (zone, depth) findings folded into the ranking.")
	reg.GaugeFunc("pipeline_days",
		"Days processed by the ranking pipeline.",
		func() float64 { return float64(p.Days()) })
	reg.GaugeFunc("pipeline_zones",
		"Distinct zones currently in the cumulative ranking.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.zones))
		})
}

// ZoneRecord is one zone's cumulative ranking entry.
type ZoneRecord struct {
	Zone string
	// Depths the zone was flagged at, across all days.
	Depths []int
	// DaysSeen counts how many processed days flagged the zone.
	DaysSeen int
	// FirstSeen and LastSeen are the day labels bounding the observations.
	FirstSeen, LastSeen time.Time
	// Names is the cumulative count of disposable names attributed.
	Names int
	// MaxConfidence is the best classifier confidence observed.
	MaxConfidence float64
}

// NewPipeline wraps a trained miner into the daily process.
func NewPipeline(miner *Miner, suffixes *dnsname.Suffixes) (*Pipeline, error) {
	if miner == nil {
		return nil, ErrNoClassifier
	}
	if suffixes == nil {
		suffixes = dnsname.DefaultSuffixes()
	}
	return &Pipeline{
		miner:    miner,
		suffixes: suffixes,
		zones:    make(map[string]*ZoneRecord),
	}, nil
}

// ProcessDay runs Algorithm 1 over one day's statistics (Figure 10 steps
// 1-3) and folds the findings into the cumulative ranking. The day's own
// findings are returned for per-day consumers.
func (p *Pipeline) ProcessDay(date time.Time, byName map[string][]*chrstat.RRStat) ([]Finding, error) {
	findings, err := p.miner.Mine(BuildTree(byName, p.suffixes), byName)
	if err != nil {
		return nil, fmt.Errorf("day %s: %w", date.Format("2006-01-02"), err)
	}
	p.fold(date, findings)
	return findings, nil
}

// fold accumulates one day's findings into the cumulative ranking.
func (p *Pipeline) fold(date time.Time, findings []Finding) {
	p.mFindings.Add(uint64(len(findings)))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.days++
	for _, f := range findings {
		rec, ok := p.zones[f.Zone]
		if !ok {
			rec = &ZoneRecord{Zone: f.Zone, FirstSeen: date}
			p.zones[f.Zone] = rec
		}
		rec.LastSeen = date
		rec.DaysSeen++
		rec.Names += len(f.Names)
		if f.Confidence > rec.MaxConfidence {
			rec.MaxConfidence = f.Confidence
		}
		if !slices.Contains(rec.Depths, f.Depth) {
			rec.Depths = append(rec.Depths, f.Depth)
			sort.Ints(rec.Depths)
		}
	}
}

// Days returns how many days the pipeline has processed.
func (p *Pipeline) Days() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.days
}

// Ranking returns the cumulative zone records, most persistent first
// (days seen, then names, then zone name for determinism).
func (p *Pipeline) Ranking() []ZoneRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ZoneRecord, 0, len(p.zones))
	for _, rec := range p.zones {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DaysSeen != out[j].DaysSeen {
			return out[i].DaysSeen > out[j].DaysSeen
		}
		if out[i].Names != out[j].Names {
			return out[i].Names > out[j].Names
		}
		return out[i].Zone < out[j].Zone
	})
	return out
}

// Summary aggregates the cumulative ranking into the Figure 11 inventory:
// distinct zones, distinct registrable domains, and the count of zones seen
// on at least minDays days (persistent zones are the high-confidence set).
func (p *Pipeline) Summary(minDays int) (zones, e2lds, persistent int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e2set := make(map[string]struct{})
	for _, rec := range p.zones {
		zones++
		if e := p.suffixes.ETLDPlusOne(rec.Zone); e != "" {
			e2set[e] = struct{}{}
		}
		if rec.DaysSeen >= minDays {
			persistent++
		}
	}
	return zones, len(e2set), persistent
}
