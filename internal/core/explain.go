// This file holds the miner's decision provenance: one replayable
// evidence record per classified candidate group, so every zone
// Algorithm 1 labels disposable carries the feature values, label-group
// statistics and the decision-tree path behind the call (the -explain
// flag on the mining CLIs). The records are self-verifying —
// VerifyExplain replays each decision path and cross-checks it against
// the recorded features.

package core

import (
	"fmt"

	"dnsnoise/internal/features"
	"dnsnoise/internal/mlearn"
)

// maxSampleNames bounds the example names embedded per record: enough to
// eyeball the group, without serializing thousand-name groups.
const maxSampleNames = 5

// ExplainRecord is the provenance of one classifier decision over a
// same-depth candidate group (Algorithm 1 lines 5-14) — positive or
// negative, so near-misses are auditable too.
type ExplainRecord struct {
	// Zone and Depth identify the candidate group G_k.
	Zone  string `json:"zone"`
	Depth int    `json:"depth"`
	// GroupSize is the number of black names in the group; Labels the
	// number of distinct labels adjacent to the zone (the L_k set);
	// MeanLabelLen their mean length in bytes.
	GroupSize    int     `json:"group_size"`
	Labels       int     `json:"labels"`
	MeanLabelLen float64 `json:"mean_label_len"`
	// Features maps feature name (features.Names order) to the value the
	// classifier saw.
	Features map[string]float64 `json:"features"`
	// Confidence is the classifier's disposable-class probability; the
	// decision is Confidence >= Theta.
	Confidence float64 `json:"confidence"`
	Theta      float64 `json:"theta"`
	Disposable bool    `json:"disposable"`
	// Path is the decision-tree route taken (empty when the classifier
	// cannot explain paths, e.g. naive Bayes). When the miner ran with a
	// FeatureMask, each step's Feature index is translated back to the
	// full-vector index, so verification against Features stays sound.
	Path []mlearn.PathStep `json:"path,omitempty"`
	// SampleNames holds up to maxSampleNames of the group's names.
	SampleNames []string `json:"sample_names,omitempty"`
	// Streaming provenance (absent on batch runs): Window is the 1-based
	// re-score window that produced the decision, Day its UTC date, and
	// Hysteresis the (verdict, streak) state the zone held when the window
	// was scored — e.g. "current=benign streak=1/2".
	Window     uint32 `json:"window,omitempty"`
	Day        string `json:"day,omitempty"`
	Hysteresis string `json:"hysteresis,omitempty"`
}

// SetExplain installs the provenance callback, invoked once per
// classifier decision with the completed record. When one miner mines on
// several goroutines the callback must be safe for concurrent use; a
// jsonl.Writer's Write is. A nil fn disables provenance.
func (m *Miner) SetExplain(fn func(ExplainRecord)) { m.explain = fn }

// explainRecord assembles the provenance for one decision. vec is the
// full feature vector, input the (possibly masked) classifier input;
// names must be read before decoloring mutates nothing (Names themselves
// survive, but we copy the sample to decouple the record from the tree's
// slices).
func (m *Miner) explainRecord(zone string, depth int, names, labels []string, vec, input []float64, p float64, disposable bool) ExplainRecord {
	rec := ExplainRecord{
		Zone:       zone,
		Depth:      depth,
		GroupSize:  len(names),
		Labels:     len(labels),
		Features:   make(map[string]float64, features.Dim),
		Confidence: p,
		Theta:      m.cfg.Theta,
		Disposable: disposable,
	}
	var labelBytes int
	for _, l := range labels {
		labelBytes += len(l)
	}
	if len(labels) > 0 {
		rec.MeanLabelLen = float64(labelBytes) / float64(len(labels))
	}
	for i, name := range features.Names {
		rec.Features[name] = vec[i]
	}
	if ex, ok := m.classifier.(mlearn.PathExplainer); ok {
		if _, path, err := ex.ExplainPath(input); err == nil {
			if m.cfg.FeatureMask != nil {
				// The classifier saw the masked vector; translate its step
				// indexes back to full-vector positions so VerifyExplain can
				// match them against the Features map.
				for i := range path {
					if path[i].Feature >= 0 && path[i].Feature < len(m.cfg.FeatureMask) {
						path[i].Feature = m.cfg.FeatureMask[path[i].Feature]
					}
				}
			}
			rec.Path = path
		}
	}
	n := len(names)
	if n > maxSampleNames {
		n = maxSampleNames
	}
	rec.SampleNames = append([]string(nil), names[:n]...)
	return rec
}

// VerifyExplain checks every record's internal consistency: the
// threshold decision must match Confidence vs Theta, the decision-tree
// path must replay (each step's branch agrees with its value/threshold
// comparison), and each path step's value must equal the recorded
// feature it tested. It returns the first inconsistency found.
func VerifyExplain(recs []ExplainRecord) error {
	for i, rec := range recs {
		if got := rec.Confidence >= rec.Theta; got != rec.Disposable {
			return fmt.Errorf("record %d (%s depth %d): disposable=%v but confidence %.4f vs theta %.4f",
				i, rec.Zone, rec.Depth, rec.Disposable, rec.Confidence, rec.Theta)
		}
		if !mlearn.ReplayPath(rec.Path) {
			return fmt.Errorf("record %d (%s depth %d): decision path does not replay",
				i, rec.Zone, rec.Depth)
		}
		for j, st := range rec.Path {
			if st.Feature < 0 || st.Feature >= features.Dim {
				return fmt.Errorf("record %d (%s depth %d): path step %d tests unknown feature %d",
					i, rec.Zone, rec.Depth, j, st.Feature)
			}
			name := features.Names[st.Feature]
			if v, ok := rec.Features[name]; !ok || v != st.Value {
				return fmt.Errorf("record %d (%s depth %d): path step %d value %v disagrees with feature %s=%v",
					i, rec.Zone, rec.Depth, j, st.Value, name, v)
			}
		}
	}
	return nil
}
