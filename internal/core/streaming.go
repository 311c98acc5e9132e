// The streaming miner: the day-batch pipeline of pipeline.go restructured
// into an incremental sliding-window process. Observations flow in through
// the same ingest sink seam the batch pipeline taps, but instead of
// waiting for a completed day collector, the StreamingPipeline
//
//   - folds the names each window observed into one long-lived domain
//     name tree (dntree.InsertAt, window-stamped, with optional
//     sliding-window expiry): the owners of the records the window touched,
//     which the CHR collector lists as it counts them, so that the observe
//     path is the collector's — or bare names, through lock-striped buffers;
//   - re-scores each window the zones it touched — the effective 2LDs
//     above a name it observed or expired — by running Algorithm 1 over
//     them with memoized label entropies and restoring the mined names, and
//     reports them with what every other zone gave when it was last mined;
//   - debounces verdict flips with hysteresis — a zone's public verdict
//     changes only after K consecutive windows propose the same flip —
//     and emits a DriftEvent at each accepted flip;
//   - publishes the current verdict set as an immutable VerdictSnapshot
//     behind an atomic pointer, cheap enough to probe per packet on the
//     serve path.
//
// The equivalence contract: with expiry disabled (KeepWindows == 0), the
// re-score at a day boundary sees exactly the tree and collector state the
// batch miner would build from the same trace, so EndDay's findings are
// DeepEqual to Pipeline.ProcessDay's — the paper's measurements survive
// the refactor. Tests pin this sequentially and under -parallel.

package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/dntree"
	"dnsnoise/internal/features"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
)

// DefaultHysteresis is the default K: a verdict flips only after this many
// consecutive windows agree on the flip.
const DefaultHysteresis = 2

// StreamingConfig tunes the incremental pipeline around a MinerConfig.
type StreamingConfig struct {
	// Hysteresis is K, the consecutive-window agreement required before a
	// zone's verdict flips (default DefaultHysteresis; 1 flips instantly).
	Hysteresis int
	// KeepWindows is the sliding horizon: names not re-observed within
	// this many windows are decolored and pruned. 0 disables expiry — the
	// day-equivalence mode, where the tree accumulates until EndDay.
	KeepWindows int
	// NumServers shards the internal CHR collector (match the resolver
	// cluster; default 1). The serve path, which feeds names without
	// observations, can leave it zero.
	NumServers int
}

func (c *StreamingConfig) setDefaults() {
	if c.Hysteresis == 0 {
		c.Hysteresis = DefaultHysteresis
	}
	if c.NumServers == 0 {
		c.NumServers = 1
	}
}

// ZoneDepth identifies one candidate group: the (z, k) pair of
// Algorithm 1's output.
type ZoneDepth struct {
	Zone  string
	Depth int
}

// DriftEvent records one accepted verdict flip.
type DriftEvent struct {
	// Window is the 1-based re-score window that accepted the flip.
	Window uint32
	// Date is the day the window belongs to.
	Date  time.Time
	Zone  string
	Depth int
	// Disposable is the new verdict.
	Disposable bool
	// Confidence is the classifier's latest disposable-class probability
	// for the group.
	Confidence float64
}

// verdictState is one zone-depth pair's hysteresis state. Pairs at the
// baseline (benign, no pending streak) are not stored at all.
type verdictState struct {
	current    bool    // the public verdict
	streak     int     // consecutive windows proposing !current
	confidence float64 // latest positive confidence seen
}

// VerdictSnapshot is an immutable view of the current verdict set,
// published atomically after every re-score. Depths are encoded as a
// per-zone bitmask so the serve path can probe a name's ancestor chain
// with plain map lookups and no allocation (Flagged).
type VerdictSnapshot struct {
	zones map[string]depthMask // zone -> its disposable depths
	pairs int
}

// maxDepth bounds the depths a snapshot holds: dnsname.Validate admits
// names of up to 127 labels.
const maxDepth = 127

// depthMask holds one bit per name depth 0..maxDepth.
type depthMask [(maxDepth + 64) / 64]uint64

func (m *depthMask) set(depth int) { m[depth>>6] |= 1 << (depth & 63) }

func (m *depthMask) has(depth int) bool { return m[depth>>6]&(1<<(depth&63)) != 0 }

// Pairs returns how many (zone, depth) pairs the snapshot flags.
func (s *VerdictSnapshot) Pairs() int {
	if s == nil {
		return 0
	}
	return s.pairs
}

// Flagged reports whether s flags a proper ancestor zone of name at
// name's depth (its dots plus one): core.Matcher's semantics, as the live
// scorer and the fleet's event stamp ask it. name is a dotted name as a
// string or as raw bytes (a wire-parsed name needs no string); either
// way the probe allocates nothing. A nil snapshot flags nothing.
func Flagged[S ~string | ~[]byte](s *VerdictSnapshot, name S) bool {
	if s == nil {
		return false
	}
	depth := 1
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			depth++
		}
	}
	if depth > maxDepth {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] != '.' {
			continue
		}
		if mask, ok := s.zones[string(name[i+1:])]; ok && mask.has(depth) {
			return true
		}
	}
	return false
}

// RescoreResult is one window's re-score outcome.
type RescoreResult struct {
	// Window is the 1-based ordinal of the completed window.
	Window uint32
	// Date is the day the window belongs to.
	Date time.Time
	// Inserted counts names newly drained into the tree this window;
	// Expired counts names decolored by the sliding horizon.
	Inserted int
	Expired  int
	// Findings are the window's raw Algorithm 1 positives — at a day
	// boundary with expiry disabled, DeepEqual to the batch miner's.
	Findings []Finding
	// Drifts are the verdict flips the window's hysteresis accepted.
	Drifts []DriftEvent
}

// pendingStripeCount is the lock-stripe fan-out of the observe-side name
// intake (power of two, mask-selected).
const pendingStripeCount = 16

type pendingStripe struct {
	mu sync.Mutex
	// seen holds the names the open window has noted, cleared at the
	// barrier: a name is admitted once per window.
	seen  map[string]struct{}
	names []string
	// spare is the other intake buffer: swapped with names at the barrier,
	// drained by the re-score, which owns it (no lock) until the next one.
	spare []string
}

// RescoreHandle is one window's re-score in flight on its own goroutine.
type RescoreHandle struct {
	done chan struct{}
	res  RescoreResult
	err  error
}

// Wait blocks until the window is mined and returns its outcome; any
// goroutine may call it, any number of times.
func (h *RescoreHandle) Wait() (RescoreResult, error) {
	<-h.done
	return h.res, h.err
}

// StreamingPipeline is the incremental miner. Observe* methods are safe
// for concurrent use (the parallel resolver workers call them);
// Rescore/EndDay/Prime run one at a time, and with ObserveBelow and
// ObserveAbove quiesced — the ingest runner calls them at stream barriers.
// ObserveName may run beside Rescore and EndDay, as the serve path's
// scorers run beside its re-score ticker: every access to a stripe's names
// and seen is under the stripe's lock, and its spare buffer belongs to the
// re-score. Between two barriers the re-score goroutine owns the tree, the entropy
// cache, the verdict states, the scratch, the per-zone findings and the
// spare intake buffers, and reads a counts view that stays frozen until the
// next barrier refreshes it.
type StreamingPipeline struct {
	miner    *Miner
	suffixes *dnsname.Suffixes
	cfg      StreamingConfig

	tree      *dntree.Tree
	entropy   *features.EntropyCache
	collector *chrstat.ShardedCollector
	counts    chrstat.Counts // the collector's per-name sums, brought up to date each window
	scratch   mineScratch    // the miner's working storage, kept across re-scores
	dirty     []*dntree.Node // the zones the window being mined touched
	// found holds, per effective 2LD with any, the findings of the window
	// that last mined it: every window reports their union.
	found   map[*dntree.Node][]Finding
	pending [pendingStripeCount]pendingStripe

	windows atomic.Uint32 // completed re-scores (1-based window = windows+1)
	day     string        // current day label, for explain stamps
	states  map[ZoneDepth]*verdictState
	snap    atomic.Pointer[VerdictSnapshot]

	rank     *Pipeline      // cumulative day ranking, folded exactly like batch
	inflight *RescoreHandle // what the last barrier started, until the next joins it

	onDrift func(DriftEvent)
	explain func(ExplainRecord)

	zonesLive  atomic.Int64 // the tree's effective 2LDs, as of the last mine
	mRescores  *telemetry.Counter
	mDrifts    *telemetry.Counter
	mNames     *telemetry.Counter
	mZones     *telemetry.Counter
	mRescoreNs *telemetry.Histogram
	mWaitNs    *telemetry.Histogram
}

// NewStreamingPipeline builds the incremental pipeline around a trained
// classifier. mcfg mirrors the batch miner's knobs (theta, group floor,
// feature mask); pass the same values as the batch run when the
// equivalence contract matters.
func NewStreamingPipeline(classifier mlearn.Classifier, mcfg MinerConfig, scfg StreamingConfig, suffixes *dnsname.Suffixes) (*StreamingPipeline, error) {
	miner, err := NewMiner(classifier, mcfg)
	if err != nil {
		return nil, err
	}
	scfg.setDefaults()
	if suffixes == nil {
		suffixes = dnsname.DefaultSuffixes()
	}
	rank, err := NewPipeline(miner, suffixes)
	if err != nil {
		return nil, err
	}
	p := &StreamingPipeline{
		miner:     miner,
		suffixes:  suffixes,
		cfg:       scfg,
		tree:      dntree.New(suffixes),
		entropy:   features.NewEntropyCache(),
		collector: chrstat.NewShardedCollector(scfg.NumServers),
		found:     make(map[*dntree.Node][]Finding),
		states:    make(map[ZoneDepth]*verdictState),
		rank:      rank,
	}
	p.tree.SetHorizon(scfg.KeepWindows)
	miner.SetEntropyCache(p.entropy)
	for i := range p.pending {
		p.pending[i].seen = make(map[string]struct{})
	}
	return p, nil
}

// OnDrift installs the drift-event callback. It runs on the re-score
// goroutine, window by window and in (zone, depth) order within one, and a
// window's calls are over before the next Rescore or EndDay returns: state
// it shares with that caller needs no lock. Install before the first window.
func (p *StreamingPipeline) OnDrift(fn func(DriftEvent)) { p.onDrift = fn }

// SetExplain installs the provenance callback. Each record is stamped
// with the re-score window, its day, and the hysteresis state the pair
// held when the decision was made — the streaming extension of the batch
// -explain records. One record per classifier decision, as in batch: a
// window makes, and records, none in a zone it did not touch. It runs where
// and when OnDrift's callback does.
func (p *StreamingPipeline) SetExplain(fn func(ExplainRecord)) {
	p.explain = fn
	if fn == nil {
		p.miner.SetExplain(nil)
		return
	}
	p.miner.SetExplain(p.stampExplain)
}

// stampExplain decorates one miner provenance record with streaming
// context. It runs inside the mine, which owns the pipeline's window state
// until the next barrier joins it.
func (p *StreamingPipeline) stampExplain(rec ExplainRecord) {
	rec.Window = p.windows.Load() + 1
	rec.Day = p.day
	verdict, streak := "benign", 0
	if st, ok := p.states[ZoneDepth{Zone: rec.Zone, Depth: rec.Depth}]; ok {
		if st.current {
			verdict = "disposable"
		}
		streak = st.streak
	}
	rec.Hysteresis = fmt.Sprintf("current=%s streak=%d/%d", verdict, streak, p.cfg.Hysteresis)
	p.explain(rec)
}

// SetMetrics registers the pipeline's streaming counters and gauges.
func (p *StreamingPipeline) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p.mRescores = reg.Counter("streaming_rescores_total",
		"Window re-scores run by the streaming miner.")
	p.mDrifts = reg.Counter("streaming_drift_events_total",
		"Verdict flips accepted by hysteresis.")
	p.mNames = reg.Counter("streaming_names_total",
		"Distinct names drained into the live domain name tree.")
	p.mZones = reg.Counter("streaming_zones_mined_total",
		"Effective 2LDs re-mined by window re-scores: the ones a window touched.")
	reg.GaugeFunc("streaming_zones_live",
		"Effective 2LDs in the live domain name tree as of the last re-score; with streaming_zones_mined_total, the share of the tree a window re-scores.",
		func() float64 { return float64(p.zonesLive.Load()) })
	p.mRescoreNs = reg.Histogram("streaming_rescore_ns",
		"Duration of a window's mine, the half of a re-score that runs beside the next intake.")
	p.mWaitNs = reg.Histogram("streaming_rescore_wait_ns",
		"Time a barrier blocked on the previous window's mine (next to nothing: the mine kept up).")
	reg.GaugeFunc("streaming_disposable_pairs",
		"Zone-depth pairs currently holding a disposable verdict.",
		func() float64 { return float64(p.snap.Load().Pairs()) })
}

// ObserveBelow implements the ingest observation-sink seam. The sharded CHR
// collector is the intake: the records a window touches name the owners the
// barrier hands to the tree. Safe for concurrent use, a goroutine per server.
func (p *StreamingPipeline) ObserveBelow(ob resolver.Observation) { p.collector.ObserveBelow(ob) }

// ObserveAbove is the above-side half of the sink seam.
func (p *StreamingPipeline) ObserveAbove(ob resolver.Observation) { p.collector.ObserveAbove(ob) }

// ObserveName notes a bare name with no cache observation behind it — the
// serve path's intake, where only the query stream is visible — once per
// window. The bytes stay the caller's: a name is copied when a window first
// notes it, so the intake allocates by the names that arrive, not by how
// often they do. Safe for concurrent use, and beside Rescore and EndDay.
func (p *StreamingPipeline) ObserveName(name []byte) {
	s := &p.pending[dnsname.Hash(name)&(pendingStripeCount-1)]
	s.mu.Lock()
	if _, ok := s.seen[string(name)]; !ok { // probed by the bytes: no copy
		key := string(name)
		s.seen[key] = struct{}{}
		s.names = append(s.names, key)
	}
	s.mu.Unlock()
}

// Rescore closes the current window: with the observe side quiesced it
// joins the previous window's re-score and runs closeWindow, then starts
// mineWindow on its own goroutine and returns, so the caller can release
// the next window's intake. The handle yields this window's outcome; the
// error is the previous window's, and then nothing was started.
func (p *StreamingPipeline) Rescore(date time.Time) (*RescoreHandle, error) {
	if err := p.join(); err != nil {
		return nil, err
	}
	h := &RescoreHandle{done: make(chan struct{})}
	byName, touched := p.closeWindow(date, &h.res)
	p.inflight = h
	go func() {
		defer close(h.done)
		h.err = p.mineWindow(&h.res, byName, touched)
	}()
	return h, nil
}

// wait blocks while a re-score is in flight.
func (p *StreamingPipeline) wait() {
	if h := p.inflight; h != nil {
		<-h.done
	}
}

// join is the barrier's wait: it takes the re-score off the pipeline, so
// that its error is returned once, and records how long it blocked.
func (p *StreamingPipeline) join() error {
	h := p.inflight
	if h == nil {
		return nil
	}
	p.inflight = nil
	if p.mWaitNs != nil {
		defer func(start time.Time) { p.mWaitNs.Observe(uint64(time.Since(start))) }(time.Now())
	}
	<-h.done
	return h.err
}

// closeWindow is the barrier half of a re-score, what must be ordered
// against the observe side: close the stripes' window (swap their intake
// buffers, forget what the window noted), bring the counts view up to date
// with the records the window touched. The view and the touched owner names
// are returned, not kept, so that EndDay's Reset leaves the day's records
// unreachable.
func (p *StreamingPipeline) closeWindow(date time.Time, res *RescoreResult) (byName map[string][]*chrstat.RRStat, touched []string) {
	p.day = date.UTC().Format("2006-01-02")
	*res = RescoreResult{Window: p.windows.Load() + 1, Date: date}
	for i := range p.pending {
		s := &p.pending[i]
		s.mu.Lock()
		s.names, s.spare = s.spare, s.names
		clear(s.seen)
		s.mu.Unlock()
	}
	return p.counts.Refresh(p.collector)
}

// mineWindow is the other half, over pipeline-owned state and the frozen
// view: tree drain and expiry, the mine of what they touched, hysteresis,
// snapshot, callbacks.
func (p *StreamingPipeline) mineWindow(res *RescoreResult, byName map[string][]*chrstat.RRStat, touched []string) error {
	if p.mRescoreNs != nil {
		defer func(start time.Time) { p.mRescoreNs.Observe(uint64(time.Since(start))) }(time.Now())
	}
	// The window's names, from both intakes, before the horizon is applied:
	// a name the tree knows is re-stamped, and the expiry leaves it alone.
	insert := func(names []string) {
		for _, name := range names {
			if p.tree.InsertAt(name) {
				res.Inserted++
			}
		}
	}
	insert(touched)
	for i := range p.pending {
		s := &p.pending[i]
		insert(s.spare)
		clear(s.spare) // an idle buffer keeps no name alive
		s.spare = s.spare[:0]
	}
	p.mNames.Add(uint64(res.Inserted))
	expired := p.tree.Expire()
	res.Expired = len(expired)
	for _, name := range expired {
		p.entropy.Forget(name)
	}

	// Re-score: mine the zones the window touched, then restore the tree. A
	// failed window is not advanced, and its zones stay dirty.
	defer p.tree.Restore()
	p.dirty = p.tree.Dirty(p.dirty[:0])
	for _, zone := range p.dirty {
		var found []Finding
		if err := p.miner.mineZone(p.tree, byName, zone, &p.scratch, &found); err != nil {
			return fmt.Errorf("window %d: %w", res.Window, err)
		}
		if p.found[zone] = found; found == nil {
			delete(p.found, zone)
		}
	}
	p.mZones.Add(uint64(len(p.dirty)))
	p.zonesLive.Store(int64(p.tree.NumStarts()))
	// Report them with what the other zones gave when they were last mined.
	for zone, found := range p.found {
		if !zone.IsStart() { // its last name expired
			delete(p.found, zone)
			continue
		}
		res.Findings = append(res.Findings, found...)
	}
	sortFindings(res.Findings)
	res.Drifts = p.updateHysteresis(res.Findings, res.Window, res.Date)
	p.windows.Add(1)
	p.tree.AdvanceWindow()
	p.publishSnapshot()
	p.mRescores.Inc()
	for _, d := range res.Drifts {
		if p.onDrift != nil {
			p.onDrift(d)
		}
	}
	p.mDrifts.Add(uint64(len(res.Drifts)))
	return nil
}

// EndDay closes the day: a final window re-score, joined and run inline
// (whose findings are the day's verdicts — the batch-equivalence
// artifact), a fold into the cumulative ranking exactly like
// Pipeline.ProcessDay, then a reset of the tree and collector for the next
// day, and of whatever else holds a name or a handle of this one. Hysteresis
// state and the published snapshot survive across days.
func (p *StreamingPipeline) EndDay(date time.Time) (RescoreResult, error) {
	var res RescoreResult
	if err := p.join(); err != nil {
		return res, err
	}
	byName, touched := p.closeWindow(date, &res)
	if err := p.mineWindow(&res, byName, touched); err != nil {
		return res, err
	}
	p.rank.fold(date, res.Findings)
	p.tree.ResetStream()
	p.scratch.groups, p.scratch.zones, p.dirty = nil, nil, nil // handles into the tree that was
	clear(p.found)
	p.collector = chrstat.NewShardedCollector(p.cfg.NumServers)
	p.counts.Reset()
	p.entropy.Reset()
	return res, nil
}

// updateHysteresis folds one window's positives into the per-pair verdict
// states, returning the accepted flips in (zone, depth) order.
func (p *StreamingPipeline) updateHysteresis(findings []Finding, window uint32, date time.Time) []DriftEvent {
	positive := make(map[ZoneDepth]float64, len(findings))
	for _, f := range findings {
		positive[ZoneDepth{Zone: f.Zone, Depth: f.Depth}] = f.Confidence
	}
	keys := make([]ZoneDepth, 0, len(p.states)+len(positive))
	for k := range p.states {
		keys = append(keys, k)
	}
	for k := range positive {
		if _, tracked := p.states[k]; !tracked {
			keys = append(keys, k)
		}
	}
	sortPairs(keys)
	var drifts []DriftEvent
	for _, k := range keys {
		conf, proposed := positive[k]
		st, ok := p.states[k]
		if !ok {
			if !proposed {
				continue
			}
			st = &verdictState{}
			p.states[keepPair(k)] = st
		}
		if proposed {
			st.confidence = conf
		}
		if proposed == st.current {
			st.streak = 0
		} else {
			st.streak++
			if st.streak >= p.cfg.Hysteresis {
				st.current = proposed
				st.streak = 0
				drifts = append(drifts, DriftEvent{
					Window:     window,
					Date:       date,
					Zone:       k.Zone,
					Depth:      k.Depth,
					Disposable: proposed,
					Confidence: st.confidence,
				})
			}
		}
		if !st.current && st.streak == 0 {
			delete(p.states, k) // back at baseline; recreate on demand
		}
	}
	return drifts
}

// keepPair returns k with a zone of its own for a verdict state, which
// outlives the day: a finding's zone is its tree node's name, a slice of the
// query name that created the node, and would pin that name for good.
func keepPair(k ZoneDepth) ZoneDepth {
	k.Zone = strings.Clone(k.Zone)
	return k
}

// publishSnapshot rebuilds and atomically publishes the verdict set.
func (p *StreamingPipeline) publishSnapshot() {
	zones := make(map[string]depthMask)
	pairs := 0
	for k, st := range p.states {
		if !st.current || k.Depth > maxDepth {
			continue
		}
		mask := zones[k.Zone]
		mask.set(k.Depth)
		zones[k.Zone] = mask
		pairs++
	}
	p.snap.Store(&VerdictSnapshot{zones: zones, pairs: pairs})
}

// Prime seeds the verdict states from a batch mine's findings (the serve
// path's bootstrap: train, mine once offline, then go live) and publishes
// the snapshot. Must run before the observe side starts.
func (p *StreamingPipeline) Prime(findings []Finding) {
	p.wait()
	for _, f := range findings {
		k := ZoneDepth{Zone: f.Zone, Depth: f.Depth}
		st, ok := p.states[k]
		if !ok {
			st = &verdictState{}
			p.states[keepPair(k)] = st
		}
		st.current = true
		if f.Confidence > st.confidence {
			st.confidence = f.Confidence
		}
	}
	p.publishSnapshot()
}

// Snapshot returns the most recently published verdict snapshot (nil
// before the first re-score or Prime; VerdictSnapshot methods are
// nil-safe).
func (p *StreamingPipeline) Snapshot() *VerdictSnapshot { return p.snap.Load() }

// CurrentDisposable lists the pairs currently holding a disposable
// verdict as of the last closed window, sorted. Quiesced callers only.
func (p *StreamingPipeline) CurrentDisposable() []ZoneDepth {
	p.wait()
	out := make([]ZoneDepth, 0, len(p.states))
	for k, st := range p.states {
		if st.current {
			out = append(out, k)
		}
	}
	sortPairs(out)
	return out
}

// sortPairs orders pairs by (zone, depth), the order of everything the
// pipeline reports.
func sortPairs(ps []ZoneDepth) {
	slices.SortFunc(ps, func(a, b ZoneDepth) int {
		return cmp.Or(cmp.Compare(a.Zone, b.Zone), cmp.Compare(a.Depth, b.Depth))
	})
}

// Windows returns how many re-scores have completed (mined, not started).
func (p *StreamingPipeline) Windows() uint32 { return p.windows.Load() }

// Ranking returns the cumulative day ranking folded from EndDay verdicts,
// identical in shape to the batch pipeline's. EndDay alone folds it, under
// the ranking's own lock: no re-score to wait for here.
func (p *StreamingPipeline) Ranking() []ZoneRecord { return p.rank.Ranking() }
