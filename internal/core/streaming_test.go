package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/labelgen"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/resolver"
)

// synthObservations fabricates one day's below/above observation stream
// (same population shape as synthCollector, but returned as a replayable
// slice so batch and streaming consumers see the identical trace).
type obsEvent struct {
	ob    resolver.Observation
	above bool
}

func synthObservations(seed int64, nDisp, nNorm, namesPerZone int) []obsEvent {
	rng := rand.New(rand.NewSource(seed))
	var events []obsEvent
	emit := func(name string, cat cache.Category, queries, misses int) {
		rr := dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 60,
			RData: dnsmsg.IPv4(198, 18, 0, byte(rng.Intn(255)))}
		ob := resolver.Observation{QName: name, RR: rr, RCode: dnsmsg.RCodeNoError, Category: cat}
		for i := 0; i < queries; i++ {
			events = append(events, obsEvent{ob: ob})
		}
		for i := 0; i < misses; i++ {
			events = append(events, obsEvent{ob: ob, above: true})
		}
	}
	for z := 0; z < nDisp; z++ {
		zone := fmt.Sprintf("sig%d.%s.com", z, labelgen.HumanWord(rng, 6))
		for i := 0; i < namesPerZone; i++ {
			emit(string(labelgen.AppendToken(nil, rng, 20))+"."+zone, cache.CategoryDisposable, 1, 1)
		}
	}
	for z := 0; z < nNorm; z++ {
		zone := fmt.Sprintf("%s%d.com", labelgen.HumanWord(rng, 6), z)
		for i := 0; i < namesPerZone; i++ {
			emit(labelgen.HostName(rng)+"."+zone, cache.CategoryOther, 10+rng.Intn(40), 1+rng.Intn(2))
		}
	}
	return events
}

func trainedClassifier(t testing.TB) *mlearn.DecisionTree {
	t.Helper()
	c, labels := synthCollector(10, 20, 20, 15)
	byName := c.ByName()
	tree := BuildTree(byName, nil)
	examples := BuildTrainingSet(tree, byName, labels, TrainingConfig{})
	clf, err := TrainClassifier(examples, TrainingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// rescore runs one window's re-score to its end: the barrier half, then a
// Wait for the mine.
func rescore(tb testing.TB, p *StreamingPipeline, date time.Time) RescoreResult {
	tb.Helper()
	h, err := p.Rescore(date)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestStreamingDayEquivalence pins the tentpole contract: a streaming run
// — observations drip-fed through the sink seam, with several intra-day
// re-scores mutating and restoring the live tree — must produce
// day-boundary verdicts DeepEqual to the batch miner over the same trace.
func TestStreamingDayEquivalence(t *testing.T) {
	clf := trainedClassifier(t)
	mcfg := MinerConfig{Theta: 0.5}

	batch, err := NewMiner(clf, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewStreamingPipeline(clf, mcfg, StreamingConfig{Hysteresis: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}

	day1 := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for dayIdx, seed := range []int64{99, 77} {
		date := day1.AddDate(0, 0, dayIdx)
		events := synthObservations(seed, 15, 15, 15)

		// Batch side: a completed day collector, mined in one shot.
		col := chrstat.NewCollector()
		for _, e := range events {
			if e.above {
				col.ObserveAbove(e.ob)
			} else {
				col.ObserveBelow(e.ob)
			}
		}
		byName := col.ByName()
		batchFindings, err := batch.Mine(BuildTree(byName, nil), byName)
		if err != nil {
			t.Fatal(err)
		}

		// Streaming side: same events through the sink seam, with
		// mid-day re-scores exercising the mine/recolor cycle.
		for i, e := range events {
			if e.above {
				stream.ObserveAbove(e.ob)
			} else {
				stream.ObserveBelow(e.ob)
			}
			if i > 0 && i%2000 == 0 {
				if _, err := stream.Rescore(date); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := stream.EndDay(date)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Findings) == 0 {
			t.Fatalf("day %d: streaming re-score found nothing", dayIdx)
		}
		if !reflect.DeepEqual(res.Findings, batchFindings) {
			t.Fatalf("day %d: streaming day-boundary verdicts differ from batch\nstream: %+v\nbatch:  %+v",
				dayIdx, res.Findings, batchFindings)
		}
	}
}

// TestStreamingHysteresisAndDrift drives the verdict state machine
// directly: K=2 means one positive window proposes, the second flips, and
// two empty windows flip back — each accepted flip emitting one drift
// event in deterministic order.
func TestStreamingHysteresisAndDrift(t *testing.T) {
	clf := trainedClassifier(t)
	stream, err := NewStreamingPipeline(clf, MinerConfig{Theta: 0.5}, StreamingConfig{Hysteresis: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var drifts []DriftEvent
	stream.OnDrift(func(d DriftEvent) { drifts = append(drifts, d) })

	date := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	feed := func() {
		for _, e := range synthObservations(42, 8, 8, 15) {
			if e.above {
				stream.ObserveAbove(e.ob)
			} else {
				stream.ObserveBelow(e.ob)
			}
		}
	}

	// Window 1: positives appear — proposals only, no flip yet.
	feed()
	res1 := rescore(t, stream, date)
	if len(res1.Findings) == 0 {
		t.Fatal("window 1 found nothing")
	}
	if len(res1.Drifts) != 0 {
		t.Fatalf("window 1 drifted early: %+v", res1.Drifts)
	}
	if stream.Snapshot().Pairs() != 0 {
		t.Fatal("snapshot flagged pairs before hysteresis agreed")
	}

	// Window 2: same positives — flips accepted.
	feed()
	res2 := rescore(t, stream, date)
	if len(res2.Drifts) != len(res1.Findings) {
		t.Fatalf("window 2 accepted %d flips, want %d", len(res2.Drifts), len(res1.Findings))
	}
	for i, d := range res2.Drifts {
		if !d.Disposable || d.Window != 2 || d.Confidence <= 0 {
			t.Fatalf("drift %d malformed: %+v", i, d)
		}
		if i > 0 && (d.Zone < res2.Drifts[i-1].Zone ||
			(d.Zone == res2.Drifts[i-1].Zone && d.Depth <= res2.Drifts[i-1].Depth)) {
			t.Fatal("drift events not in (zone, depth) order")
		}
	}
	snap := stream.Snapshot()
	if snap.Pairs() != len(res2.Drifts) {
		t.Fatalf("snapshot pairs = %d, want %d", snap.Pairs(), len(res2.Drifts))
	}
	if got := len(stream.CurrentDisposable()); got != snap.Pairs() {
		t.Fatalf("CurrentDisposable = %d pairs, snapshot %d", got, snap.Pairs())
	}

	// The snapshot answers ancestor probes: a flagged (zone, depth) pair
	// matches a name of that depth under the zone.
	zd := stream.CurrentDisposable()[0]
	if name := nameUnder(zd); !Flagged(snap, name) || !Flagged(snap, []byte(name)) {
		t.Fatalf("snapshot does not flag %s under pair %+v", name, zd)
	}
	if name := "x." + nameUnder(zd); Flagged(snap, name) {
		t.Fatalf("snapshot flags %s, one deeper than pair %+v", name, zd)
	}
	if Flagged(snap, "x.never.flagged.example") {
		t.Fatal("unknown zone matched")
	}

	// Window 3 is the day boundary: the tree is still populated when
	// EndDay re-scores, so verdicts hold steady; the reset happens after.
	res3, err := stream.EndDay(date)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Drifts) != 0 {
		t.Fatalf("day-boundary window drifted: %+v", res3.Drifts)
	}
	// Windows 4-5: the zones go quiet (fresh tree, no new observations) —
	// only after two empty windows does every verdict flip back.
	next := date.AddDate(0, 0, 1)
	res4 := rescore(t, stream, next) // window 4: streak building
	if len(res4.Drifts) != 0 {
		t.Fatalf("quiet window flipped early: %+v", res4.Drifts)
	}
	res5 := rescore(t, stream, next) // window 5: flips accepted
	backFlips := 0
	for _, d := range res5.Drifts {
		if d.Disposable {
			t.Fatalf("unexpected positive drift in quiet window: %+v", d)
		}
		backFlips++
	}
	if backFlips != snap.Pairs() {
		t.Fatalf("quiet windows flipped back %d pairs, want %d", backFlips, snap.Pairs())
	}
	if stream.Snapshot().Pairs() != 0 {
		t.Fatal("snapshot still flags pairs after back-flips")
	}
	if total := len(drifts); total != len(res2.Drifts)+backFlips {
		t.Fatalf("OnDrift saw %d events, want %d", total, len(res2.Drifts)+backFlips)
	}
}

// TestStreamingPrime seeds verdicts from a batch mine, the serve path's
// bootstrap.
func TestStreamingPrime(t *testing.T) {
	clf := trainedClassifier(t)
	stream, err := NewStreamingPipeline(clf, MinerConfig{Theta: 0.5}, StreamingConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	findings := []Finding{
		{Zone: "avqs.mcafee.com", Depth: 12, Confidence: 0.99},
		{Zone: "d.test", Depth: 3, Confidence: 0.9},
	}
	stream.Prime(findings)
	snap := stream.Snapshot()
	if snap.Pairs() != 2 {
		t.Fatalf("primed pairs = %d, want 2", snap.Pairs())
	}
	if !Flagged(snap, []byte("a.d.test")) {
		t.Fatal("primed pair (d.test, 3) does not flag a.d.test")
	}
}

// TestSnapshotFlagsDeepPairs: a pair at any depth a valid name can have
// (up to 127 labels) is published, counted, and flags the names under it.
func TestSnapshotFlagsDeepPairs(t *testing.T) {
	stream, err := NewStreamingPipeline(trainedClassifier(t), MinerConfig{Theta: 0.5}, StreamingConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	deep := ZoneDepth{Zone: strings.Repeat("z.", 60) + "test", Depth: 70}
	stream.Prime([]Finding{{Zone: deep.Zone, Depth: deep.Depth, Confidence: 0.9},
		{Zone: "d.test", Depth: 3, Confidence: 0.9}})
	snap := stream.Snapshot()
	if got, want := snap.Pairs(), len(stream.CurrentDisposable()); got != want {
		t.Fatalf("snapshot flags %d pairs, CurrentDisposable lists %d", got, want)
	}
	if name := nameUnder(deep); !Flagged(snap, name) {
		t.Fatalf("depth-%d name under the deep pair scores benign", deep.Depth)
	}
}

// nameUnder returns a name of zd.Depth labels under zd.Zone.
func nameUnder(zd ZoneDepth) string {
	return strings.Repeat("x.", zd.Depth-dnsname.CountLabels(zd.Zone)) + zd.Zone
}

// TestStreamingExplainStamps verifies the provenance extension: records
// emitted during a re-score carry the window ordinal, day, and hysteresis
// state.
func TestStreamingExplainStamps(t *testing.T) {
	clf := trainedClassifier(t)
	stream, err := NewStreamingPipeline(clf, MinerConfig{Theta: 0.5}, StreamingConfig{Hysteresis: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs []ExplainRecord
	stream.SetExplain(func(rec ExplainRecord) { recs = append(recs, rec) })
	for _, e := range synthObservations(42, 6, 6, 15) {
		if e.above {
			stream.ObserveAbove(e.ob)
		} else {
			stream.ObserveBelow(e.ob)
		}
	}
	rescore(t, stream, time.Date(2014, 3, 5, 0, 0, 0, 0, time.UTC))
	if len(recs) == 0 {
		t.Fatal("no explain records emitted")
	}
	for _, rec := range recs {
		if rec.Window != 1 {
			t.Fatalf("record window = %d, want 1", rec.Window)
		}
		if rec.Day != "2014-03-05" {
			t.Fatalf("record day = %q", rec.Day)
		}
		if rec.Hysteresis != "current=benign streak=0/3" {
			t.Fatalf("record hysteresis = %q", rec.Hysteresis)
		}
	}
	// The records still satisfy the batch verifier.
	if err := VerifyExplain(recs); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingSlidingExpiry checks KeepWindows: names not re-observed
// within the horizon leave the tree.
func TestStreamingSlidingExpiry(t *testing.T) {
	clf := trainedClassifier(t)
	stream, err := NewStreamingPipeline(clf, MinerConfig{Theta: 0.5}, StreamingConfig{Hysteresis: 1, KeepWindows: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	date := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	stream.ObserveName([]byte("once.seen.example.com"))
	if res := rescore(t, stream, date); res.Inserted != 1 || res.Expired != 0 {
		t.Fatalf("window 1: inserted=%d expired=%d", res.Inserted, res.Expired)
	}
	// Window 2: nothing re-observed; horizon is 2 so the name survives.
	if res := rescore(t, stream, date); res.Expired != 0 {
		t.Fatalf("window 2: expired=%d", res.Expired)
	}
	// Window 3: the name falls out of the horizon.
	if res := rescore(t, stream, date); res.Expired != 1 {
		t.Fatalf("window 3: expired=%d", res.Expired)
	}
	// Re-observation after expiry re-inserts (the dedup map was cleaned).
	stream.ObserveName([]byte("once.seen.example.com"))
	if res := rescore(t, stream, date); res.Inserted != 1 {
		t.Fatalf("window 4: inserted=%d", res.Inserted)
	}

	// Windows of fresh one-shot names over several zones: each window
	// expires exactly what the window keep before it brought.
	const keep, zones, perWindow = 2, 5, 20
	rng := rand.New(rand.NewSource(3))
	for w := 0; w < 12; w++ {
		for z := 0; z < zones; z++ {
			for i := 0; i < perWindow; i++ {
				stream.ObserveName(fmt.Appendf(nil, "%s.sig%d.vendor.com", labelgen.AppendToken(nil, rng, 20), z))
			}
		}
		res := rescore(t, stream, date)
		if want := zones * perWindow; res.Inserted != want || w >= keep && res.Expired != want {
			t.Fatalf("fresh window %d: %d inserted, %d expired; want %d and, past the horizon, the %d of window %d",
				w, res.Inserted, res.Expired, want, want, w-keep)
		}
	}
	if _, err := stream.EndDay(date); err != nil {
		t.Fatal(err)
	}
	if got, _ := stream.counts.Refresh(stream.collector); len(got) != 0 {
		t.Errorf("the counts view still groups %d names after EndDay", len(got))
	}
}

// steadyPipeline returns a streaming pipeline one re-score into a day of
// 5 000 names under 50 zones (35 of them disposable), with nothing pending: the
// state between two windows in which no new name arrived.
func steadyPipeline(tb testing.TB) (*StreamingPipeline, time.Time, int) {
	tb.Helper()
	stream, err := NewStreamingPipeline(trainedClassifier(tb), MinerConfig{Theta: 0.5}, StreamingConfig{NumServers: 2}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i, e := range synthObservations(21, 35, 15, 130) {
		e.ob.Server = i % 2
		if e.above {
			stream.ObserveAbove(e.ob)
		} else {
			stream.ObserveBelow(e.ob)
		}
	}
	date := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	res := rescore(tb, stream, date)
	if res.Inserted < 5000 || len(res.Findings) == 0 {
		tb.Fatalf("fixture: %d names inserted, %d findings", res.Inserted, len(res.Findings))
	}
	return stream, date, res.Inserted
}

// TestRescoreSteadyStateAllocs is the allocation guard of the hourly
// re-score: over an unchanged tree it mines nothing, and may allocate for
// what it reports (the findings' list, the hysteresis fold, the snapshot)
// and for running beside the intake (handle, channel, goroutine) — 24
// objects on this fixture — not per name, per record or per finding in the
// tree. The limit is that reading plus a handful, so that it can fail. A
// window that notes, as bare names, the 130 names of one zone the tree
// holds is held to the same limit: the drain stamps a name the tree holds
// with no copy, and the zone's mine adds two objects (26).
func TestRescoreSteadyStateAllocs(t *testing.T) {
	const limit = 28
	stream, date, names := steadyPipeline(t)
	allocs := testing.AllocsPerRun(5, func() { rescore(t, stream, date) })
	if allocs > limit {
		t.Errorf("a re-score of an unchanged tree of %d names allocates %.0f objects, want at most %d", names, allocs, limit)
	}
	t.Logf("%.0f allocs per steady-state re-score of %d names", allocs, names)

	first := synthObservations(21, 35, 15, 130)[0].ob.RR.Name
	var held [][]byte
	for _, name := range stream.tree.NamesUnder(first[strings.IndexByte(first, '.')+1:]) {
		held = append(held, []byte(name))
	}
	if len(held) != 130 {
		t.Fatalf("fixture: %d names under the first zone, want 130", len(held))
	}
	window := func() {
		for _, name := range held {
			stream.ObserveName(name)
		}
		if res := rescore(t, stream, date); res.Inserted != 0 {
			t.Fatalf("a window of held names inserted %d", res.Inserted)
		}
	}
	window() // the barrier swaps two intake sets a stripe: grow both
	window()
	allocs = testing.AllocsPerRun(5, window)
	if allocs > limit {
		t.Errorf("a re-score of a window of %d bare names the tree holds allocates %.0f objects, want at most %d", len(held), allocs, limit)
	}
	t.Logf("%.0f allocs per re-score of %d held bare names", allocs, len(held))
}

func BenchmarkRescore(b *testing.B) {
	stream, date, _ := steadyPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rescore(b, stream, date) // the whole re-score, not its barrier half
	}
}

// BenchmarkRescoreTouched prices a window that changed something: 100 new
// names under one zone of 2 000, and a name seen again under two of the 40
// other zones (5 %) of 75 names each.
func BenchmarkRescoreTouched(b *testing.B) {
	stream, err := NewStreamingPipeline(trainedClassifier(b), MinerConfig{Theta: 0.5}, StreamingConfig{NumServers: 2}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	observe := func(name string) {
		ob := observation(name, cache.CategoryDisposable)
		ob.Server = rng.Intn(2)
		stream.ObserveBelow(ob)
		stream.ObserveAbove(ob)
	}
	var others []string
	for z := 0; z < 40; z++ {
		for i := 0; i < 75; i++ {
			others = append(others, fmt.Sprintf("%s.sig%d.vendor%d.com", string(labelgen.AppendToken(nil, rng, 20)), z, z))
			observe(others[len(others)-1])
		}
	}
	for i := 0; i < 2000; i++ {
		observe(string(labelgen.AppendToken(nil, rng, 20)) + ".avqs.bigvendor.com")
	}
	date := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	if res := rescore(b, stream, date); res.Inserted != 5000 || len(res.Findings) < 41 {
		b.Fatalf("fixture: %d names inserted, %d findings", res.Inserted, len(res.Findings))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 100; n++ {
			observe(string(labelgen.AppendToken(nil, rng, 20)) + ".avqs.bigvendor.com")
		}
		observe(others[(2*i)%40*75])
		observe(others[(2*i+1)%40*75])
		rescore(b, stream, date)
	}
	if got := len(stream.dirty); got != 3 {
		b.Fatalf("the last window mined %d zones, want 3", got)
	}
}

// BenchmarkObserveName prices the serve path's intake, one name a call, on
// 4 096 names of 20-byte random labels under one zone: noted again in the
// window that holds them (repeated), and noted into windows that have not
// (fresh), whose intake sets earlier windows grew. The barriers are not
// timed; both cases should read 0 allocs/op.
func BenchmarkObserveName(b *testing.B) {
	stream, err := NewStreamingPipeline(trainedClassifier(b), MinerConfig{Theta: 0.5}, StreamingConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	names := make([][]byte, 4096)
	for i := range names {
		names[i] = append(labelgen.AppendToken(nil, rng, 20), ".flood.example.com"...)
	}
	date := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	window := func() {
		for _, name := range names {
			stream.ObserveName(name)
		}
	}
	for range 2 { // the barrier swaps two intake sets a stripe: grow both
		window()
		rescore(b, stream, date)
	}
	b.Run("repeated", func(b *testing.B) {
		window()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stream.ObserveName(names[i%len(names)])
		}
		b.StopTimer()
		rescore(b, stream, date)
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%len(names) == 0 {
				b.StopTimer()
				rescore(b, stream, date)
				b.StartTimer()
			}
			stream.ObserveName(names[i%len(names)])
		}
		b.StopTimer()
		rescore(b, stream, date)
	})
}

// BenchmarkMine prices the batch miner over the steady fixture's day.
func BenchmarkMine(b *testing.B) {
	col := chrstat.NewCollector()
	for _, e := range synthObservations(21, 35, 15, 130) {
		if e.above {
			col.ObserveAbove(e.ob)
		} else {
			col.ObserveBelow(e.ob)
		}
	}
	byName := col.ByName()
	miner, err := NewMiner(trainedClassifier(b), MinerConfig{Theta: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	tree := BuildTree(byName, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings, err := miner.Mine(tree, byName)
		if err != nil || len(findings) < 35 {
			b.Fatalf("%d findings, %v", len(findings), err)
		}
		tree.Restore() // the next round mines the same tree
	}
}
