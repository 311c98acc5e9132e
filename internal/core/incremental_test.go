package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/features"
	"dnsnoise/internal/labelgen"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/resolver"
)

// observation is one answer for name, as the taps report it.
func observation(name string, cat cache.Category) resolver.Observation {
	rr := dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.IPv4(198, 18, 0, 1)}
	return resolver.Observation{QName: name, RR: rr, RCode: dnsmsg.RCodeNoError, Category: cat}
}

// TestHorizonHonoursReobservation: under a horizon of N windows a name
// seen in every window never expires, through either intake; one that goes
// quiet expires N windows after it was last seen, and comes back when it
// is seen again. (Until the intake admitted a name once per window, the
// dedup set turned the steady name away before the tree could re-stamp it:
// it expired N windows after it was first seen and came back a window
// later, for ever.)
func TestHorizonHonoursReobservation(t *testing.T) {
	const keep = 3
	date := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, intake := range []string{"ObserveBelow", "ObserveName"} {
		p, err := NewStreamingPipeline(trainedClassifier(t), MinerConfig{Theta: 0.5}, StreamingConfig{KeepWindows: keep}, nil)
		if err != nil {
			t.Fatal(err)
		}
		observe := func(name string) {
			if intake == "ObserveName" {
				p.ObserveName([]byte(name))
				return
			}
			p.ObserveBelow(observation(name, cache.CategoryOther))
		}
		for w := 1; w <= 2*keep+2; w++ {
			want := RescoreResult{}
			observe("steady.zone.example.com")
			switch w {
			case 1:
				observe("brief.zone.example.com")
				want.Inserted = 2
			case 1 + keep:
				want.Expired = 1 // brief, last seen keep windows ago
			case 3 + keep:
				observe("brief.zone.example.com")
				want.Inserted = 1
			}
			res := rescore(t, p, date)
			if res.Inserted != want.Inserted || res.Expired != want.Expired {
				t.Errorf("%s, window %d: %d inserted, %d expired; want %d and %d",
					intake, w, res.Inserted, res.Expired, want.Inserted, want.Expired)
			}
		}
		if black := p.tree.NamesUnder("zone.example.com"); !slices.Contains(black, "steady.zone.example.com") || !slices.Contains(black, "brief.zone.example.com") {
			t.Errorf("%s: a name seen inside the horizon is gone", intake)
		}
	}
}

// windowPlan is what one window observes: for each name, how many answers
// below and above.
type windowPlan []plannedName

type plannedName struct {
	name         string
	cat          cache.Category
	below, above int
}

// incrementalPlan schedules two days of eight windows over twelve zones of
// the shapes the classifier was trained on. A zone is quiet in one window
// out of three; an active one sees some of its names again, and — if
// disposable — a few new ones. With nested, two more zones sit one above
// the other: bucket.s3.example.com under example.com.
func incrementalPlan(seed int64, nested bool) [][]windowPlan {
	rng := rand.New(rand.NewSource(seed))
	type zone struct {
		origin     string
		disposable bool
		names      []string
	}
	var zones []*zone
	for z := 0; z < 6; z++ {
		zones = append(zones, &zone{origin: fmt.Sprintf("sig%d.%s.com", z, labelgen.HumanWord(rng, 6)), disposable: true})
		zones = append(zones, &zone{origin: fmt.Sprintf("%s%d.com", labelgen.HumanWord(rng, 6), z)})
	}
	if nested {
		zones = append(zones, &zone{origin: "bucket.s3.example.com", disposable: true}, &zone{origin: "example.com"})
	}
	for _, z := range zones {
		if !z.disposable {
			for i := 0; i < 12; i++ {
				z.names = append(z.names, labelgen.HostName(rng)+"."+z.origin)
			}
		}
	}
	days := make([][]windowPlan, 2)
	for d := range days {
		for w := 0; w < 8; w++ {
			var plan windowPlan
			for _, z := range zones {
				if rng.Intn(3) == 0 {
					continue
				}
				if z.disposable {
					for i := rng.Intn(6); i > 0; i-- {
						z.names = append(z.names, string(labelgen.AppendToken(nil, rng, 20))+"."+z.origin)
					}
				}
				for _, i := range rng.Perm(len(z.names))[:rng.Intn(len(z.names)+1)] {
					if z.disposable {
						plan = append(plan, plannedName{z.names[i], cache.CategoryDisposable, 1, 1})
					} else {
						plan = append(plan, plannedName{z.names[i], cache.CategoryOther, 3 + rng.Intn(20), rng.Intn(2)})
					}
				}
			}
			days[d] = append(days[d], plan)
		}
	}
	return days
}

// incrementalTrace is everything a run reports, and per window the zones
// it mined and the zones the tree held.
type incrementalTrace struct {
	windows []RescoreResult
	drifts  []DriftEvent
	explain [][]ExplainRecord // per window
	mined   [][]string        // per window
	starts  []int             // per window
}

// incrementalRun drives a pipeline through the plan, waiting for every
// window. With full, every zone of the tree is marked dirty before each
// mine: the run every window of which is a full mine.
func incrementalRun(t *testing.T, clf mlearn.Classifier, mcfg MinerConfig, days [][]windowPlan, keep int, byName, full bool, suffixes *dnsname.Suffixes) incrementalTrace {
	t.Helper()
	p, err := NewStreamingPipeline(clf, mcfg, StreamingConfig{Hysteresis: 2, KeepWindows: keep, NumServers: 2}, suffixes)
	if err != nil {
		t.Fatal(err)
	}
	var tr incrementalTrace
	var explain []ExplainRecord
	p.OnDrift(func(d DriftEvent) { tr.drifts = append(tr.drifts, d) })
	p.SetExplain(func(rec ExplainRecord) { explain = append(explain, rec) })
	day := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for d, plans := range days {
		date := day.AddDate(0, 0, d)
		for w, plan := range plans {
			for i, e := range plan {
				if byName {
					p.ObserveName([]byte(e.name))
					continue
				}
				ob := observation(e.name, e.cat)
				ob.Server = i % 2
				for n := 0; n < e.below; n++ {
					p.ObserveBelow(ob)
				}
				for n := 0; n < e.above; n++ {
					p.ObserveAbove(ob)
				}
			}
			if full {
				p.tree.TouchAll() // nothing is in flight: every window was waited for
			}
			var res RescoreResult
			if w < len(plans)-1 {
				res = rescore(t, p, date)
			} else if res, err = p.EndDay(date); err != nil {
				t.Fatal(err)
			}
			tr.windows = append(tr.windows, res)
			tr.explain = append(tr.explain, explain)
			explain = nil
			var mined []string
			for _, zone := range p.dirty { // none after EndDay, which drops the list
				mined = append(mined, zone.Name())
			}
			tr.mined = append(tr.mined, mined)
			tr.starts = append(tr.starts, int(p.zonesLive.Load()))
		}
	}
	return tr
}

// TestIncrementalEqualsFullMine is the reference test of the incremental
// re-score, window by window and not only at the day boundary: a pipeline
// that mines what each window touched reports what the same pipeline
// reports with every zone marked dirty before each mine — results, drift
// sequence — and makes the same decisions where it makes any:
// its explain records are the reference's, less those of zones the window
// did not mine. Both intakes, with and without a horizon, and once with an
// effective 2LD under another.
func TestIncrementalEqualsFullMine(t *testing.T) {
	full := trainedClassifier(t)
	c, labels := synthCollector(10, 20, 20, 15)
	stats := c.ByName()
	masked, err := TrainClassifier(BuildTrainingSet(BuildTree(stats, nil), stats, labels,
		TrainingConfig{FeatureMask: features.TreeStructureIdx}), TrainingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	nestedSuffixes := dnsname.NewSuffixes([]string{"com", "s3.example.com"})

	type variant struct {
		keep           int
		byName, nested bool
	}
	var variants []variant
	for _, keep := range []int{0, 3} {
		for _, byName := range []bool{false, true} {
			variants = append(variants, variant{keep: keep, byName: byName})
		}
	}
	variants = append(variants, variant{keep: 0, nested: true}, variant{keep: 3, nested: true})

	for _, v := range variants {
		clf, mcfg := mlearn.Classifier(full), MinerConfig{Theta: 0.5}
		if v.byName {
			clf, mcfg.FeatureMask = masked, features.TreeStructureIdx
		}
		var suffixes *dnsname.Suffixes
		if v.nested {
			suffixes = nestedSuffixes
		}
		skipped, skippedFindings := 0, 0
		for seed := int64(1); seed <= 10; seed++ {
			at := fmt.Sprintf("keep %d, by name %v, nested %v, seed %d", v.keep, v.byName, v.nested, seed)
			days := incrementalPlan(seed, v.nested)
			got := incrementalRun(t, clf, mcfg, days, v.keep, v.byName, false, suffixes)
			want := incrementalRun(t, clf, mcfg, days, v.keep, v.byName, true, suffixes)

			for w := range want.windows {
				if !reflect.DeepEqual(got.windows[w], want.windows[w]) {
					t.Fatalf("%s: window %d differs\nincremental: %s\nfull:        %s", at, w+1, brief(got.windows[w]), brief(want.windows[w]))
				}
				if len(want.mined[w]) != want.starts[w] && w%8 != 7 {
					t.Fatalf("%s: the reference mined %d of %d zones in window %d", at, len(want.mined[w]), want.starts[w], w+1)
				}
				// The incremental run's decisions are the reference's, in its
				// order, less those under zones the window did not mine.
				rest := got.explain[w]
				for _, rec := range want.explain[w] {
					if len(rest) > 0 && reflect.DeepEqual(rec, rest[0]) {
						rest = rest[1:]
						continue
					}
					for _, zone := range got.mined[w] {
						if dnsname.IsSubdomainOf(rec.Zone, zone) {
							t.Fatalf("%s: window %d mined %s and made no decision on %s depth %d", at, w+1, zone, rec.Zone, rec.Depth)
						}
					}
				}
				if len(rest) > 0 {
					t.Fatalf("%s: window %d: a decision on %s depth %d that the full mine does not make (or makes elsewhere)", at, w+1, rest[0].Zone, rest[0].Depth)
				}
				// Mined: the zones above what the window observed — and,
				// with no horizon to expire names and no nest, only those.
				touched := make(map[string]bool)
				for _, e := range days[w/8][w%8] {
					touched[suffixesOrDefault(suffixes).ETLDPlusOne(e.name)] = true
				}
				for zone := range touched {
					if !slices.Contains(got.mined[w], zone) && w%8 != 7 {
						t.Fatalf("%s: window %d observed a name under %s and did not mine it", at, w+1, zone)
					}
				}
				if v.keep == 0 && !v.nested && w%8 != 7 && len(got.mined[w]) != len(touched) {
					t.Fatalf("%s: window %d mined %v, the window touched %d zones", at, w+1, got.mined[w], len(touched))
				}
				if w%8 != 7 && len(got.mined[w]) < got.starts[w] {
					skipped++
					for _, f := range got.windows[w].Findings {
						if !slices.ContainsFunc(got.mined[w], func(zone string) bool { return dnsname.IsSubdomainOf(f.Zone, zone) }) {
							skippedFindings++
						}
					}
				}
			}
			if !reflect.DeepEqual(got.drifts, want.drifts) {
				t.Errorf("%s: drift sequences differ", at)
			}
			if len(want.drifts) == 0 {
				t.Fatalf("%s: fixture reports no drifts", at)
			}
		}
		if skipped == 0 || skippedFindings == 0 {
			t.Errorf("keep %d, by name %v, nested %v: fixture: %d windows skipped a zone, %d findings stood in a skipped zone",
				v.keep, v.byName, v.nested, skipped, skippedFindings)
		}
	}
}

// brief is a window's outcome in a line.
func brief(res RescoreResult) string {
	out := fmt.Sprintf("%d inserted, %d expired, %d drifts, findings", res.Inserted, res.Expired, len(res.Drifts))
	for _, f := range res.Findings {
		out += fmt.Sprintf(" %s/%d(%d)", f.Zone, f.Depth, len(f.Names))
	}
	return out
}

func suffixesOrDefault(s *dnsname.Suffixes) *dnsname.Suffixes {
	if s == nil {
		return dnsname.DefaultSuffixes()
	}
	return s
}
