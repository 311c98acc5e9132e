package tsdb

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dnsnoise/internal/telemetry"
)

// naiveSeries is the reference model: a plain append-only log truncated to
// the trailing retain samples — what the ring buffer is supposed to hold.
type naiveSeries struct {
	kind    Kind
	samples []sample
}

func (n *naiveSeries) add(t int64, v float64, retain int) {
	n.samples = append(n.samples, sample{t: t, v: v})
	if len(n.samples) > retain {
		n.samples = n.samples[len(n.samples)-retain:]
	}
}

// naiveAggregate recomputes the documented bucket semantics from scratch:
// bucket b covers (start+b*step, start+(b+1)*step]; avg/max over contained
// samples; rate is (last-in-bucket - last-at-or-before-start) / elapsed
// seconds, clamped at zero; empty buckets (or rate buckets without a base
// sample) emit nothing.
func naiveAggregate(samples []sample, agg Agg, startNs, stepNs int64, nb int) []Point {
	var points []Point
	for b := 0; b < nb; b++ {
		lo := startNs + int64(b)*stepNs
		hi := lo + stepNs
		var in []sample
		var prev *sample
		for i := range samples {
			if samples[i].t <= lo {
				prev = &samples[i]
			} else if samples[i].t <= hi {
				in = append(in, samples[i])
			}
		}
		if len(in) == 0 {
			continue
		}
		var v float64
		switch agg {
		case AggRate:
			if prev == nil {
				continue
			}
			last := in[len(in)-1]
			dt := float64(last.t-prev.t) / float64(time.Second)
			if dt <= 0 {
				continue
			}
			v = (last.v - prev.v) / dt
			if v < 0 {
				v = 0
			}
		case AggMax:
			v = in[0].v
			for _, s := range in[1:] {
				if s.v > v {
					v = s.v
				}
			}
		default:
			var sum float64
			for _, s := range in {
				sum += s.v
			}
			v = sum / float64(len(in))
		}
		points = append(points, Point{T: hi / int64(time.Millisecond), V: v})
	}
	return points
}

// TestQueryMatchesNaiveReference drives a DB through two and a half times
// DefaultRetain sweeps (so every ring wraps twice) with randomized counter and
// gauge series, then checks hundreds of randomized range queries against
// the naive reference model, for every aggregation.
func TestQueryMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20111201))
	const retain = DefaultRetain

	db := New()
	names := []string{"a_total", `a_total{server="1"}`, "b_total", "g_gauge", `g_gauge{pop="2"}`}
	kinds := []Kind{KindCounter, KindCounter, KindCounter, KindGauge, KindGauge}
	ref := make(map[string]*naiveSeries)
	for i, n := range names {
		ref[n] = &naiveSeries{kind: kinds[i]}
	}

	counters := map[string]uint64{names[0]: 0, names[1]: 0, names[2]: 0}
	now := t0
	var minT, maxT time.Time
	for sweep := 0; sweep < 5*retain/2; sweep++ {
		now = now.Add(time.Duration(200+rng.Intn(1800)) * time.Millisecond)
		if minT.IsZero() {
			minT = now
		}
		maxT = now
		for n := range counters {
			counters[n] += uint64(rng.Intn(500))
		}
		gauges := map[string]float64{
			names[3]: rng.Float64() * 100,
			names[4]: rng.NormFloat64() * 10,
		}
		cCopy := make(map[string]uint64, len(counters))
		for n, v := range counters {
			cCopy[n] = v
		}
		db.Record(&telemetry.Snapshot{Time: now, Counters: cCopy, Gauges: gauges})
		ts := now.UnixNano()
		for n, v := range cCopy {
			ref[n].add(ts, float64(v), retain)
		}
		for n, v := range gauges {
			ref[n].add(ts, v, retain)
		}
	}

	aggs := []Agg{AggAvg, AggMax, AggRate}
	for q := 0; q < 400; q++ {
		agg := aggs[rng.Intn(len(aggs))]
		// Random window. The ring only retains the trailing ~retain sweeps,
		// so bias most windows into that tail (plus edges past maxT); keep a
		// minority probing the evicted head and beyond, which must be empty.
		var start time.Time
		if rng.Intn(4) > 0 {
			start = maxT.Add(-time.Duration(rng.Int63n(int64(45 * time.Second))))
		} else {
			span := maxT.Sub(minT)
			start = minT.Add(time.Duration(rng.Int63n(int64(span)+1)) - span/4)
		}
		end := start.Add(time.Duration(1 + rng.Int63n(int64(60*time.Second))))
		step := time.Duration(100+rng.Intn(5000)) * time.Millisecond
		pattern := names[rng.Intn(len(names))]
		if rng.Intn(4) == 0 {
			pattern = "*_total"
		}

		got := db.Query(pattern, agg, Options{Start: start, End: end, Step: step})

		// Rebuild the expectation with the same bucket layout Query uses.
		startNs, stepNs := start.UnixNano(), step.Nanoseconds()
		nb := int((end.UnixNano() - startNs + stepNs - 1) / stepNs)
		var want []Result
		for _, n := range sortedKeys(ref) {
			if !MatchSeries(pattern, n) {
				continue
			}
			pts := naiveAggregate(ref[n].samples, agg, startNs, stepNs, nb)
			if len(pts) == 0 {
				continue
			}
			want = append(want, Result{Name: n, Kind: ref[n].kind.String(), Points: pts})
		}

		desc := fmt.Sprintf("query %d: pattern=%q agg=%v start=%v end=%v step=%v",
			q, pattern, agg, start, end, step)
		if len(got) != len(want) {
			t.Fatalf("%s: got %d series, want %d\ngot: %+v\nwant: %+v", desc, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Kind != want[i].Kind {
				t.Fatalf("%s: series %d = %s/%s, want %s/%s", desc, i, got[i].Name, got[i].Kind, want[i].Name, want[i].Kind)
			}
			if len(got[i].Points) != len(want[i].Points) {
				t.Fatalf("%s: series %s: %d points, want %d\ngot: %+v\nwant: %+v",
					desc, got[i].Name, len(got[i].Points), len(want[i].Points), got[i].Points, want[i].Points)
			}
			for j := range got[i].Points {
				if got[i].Points[j] != want[i].Points[j] {
					t.Fatalf("%s: series %s point %d = %+v, want %+v",
						desc, got[i].Name, j, got[i].Points[j], want[i].Points[j])
				}
			}
		}
	}
}
