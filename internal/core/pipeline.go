package core

import (
	"fmt"
	"time"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsname"
)

// Pipeline is the one-call batch mine of Figure 10, steps 1-3: a day's full
// passive DNS dataset through the Domain Name Tree Builder and the
// Disposable Domain Classifier. It holds nothing across days. The
// benchmark's batch reference is its only caller; everything else mines a
// day with Miner.Mine over BuildTree directly.
type Pipeline struct {
	miner    *Miner
	suffixes *dnsname.Suffixes
}

// NewPipeline wraps a trained miner.
func NewPipeline(miner *Miner, suffixes *dnsname.Suffixes) (*Pipeline, error) {
	if miner == nil {
		return nil, ErrNoClassifier
	}
	if suffixes == nil {
		suffixes = dnsname.DefaultSuffixes()
	}
	return &Pipeline{miner: miner, suffixes: suffixes}, nil
}

// ProcessDay runs Algorithm 1 over one day's statistics and returns the
// day's findings; an error names the day.
func (p *Pipeline) ProcessDay(date time.Time, byName map[string][]*chrstat.RRStat) ([]Finding, error) {
	findings, err := p.miner.Mine(BuildTree(byName, p.suffixes), byName)
	if err != nil {
		return nil, fmt.Errorf("day %s: %w", date.Format("2006-01-02"), err)
	}
	return findings, nil
}
