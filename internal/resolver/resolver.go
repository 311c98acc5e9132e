// Package resolver simulates a recursive DNS (RDNS) server cluster of the
// kind the paper measured at a large ISP: several servers, each with an
// independent fixed-size LRU cache, serving a shared client population and
// recursing to authoritative servers on cache misses.
//
// The cluster exposes the two observation points the paper's datasets are
// built from:
//
//   - "below" — answers sent from the RDNS servers to clients, and
//   - "above" — answers received by the RDNS servers from authorities.
//
// Both taps see the answer section of each response, one observation per
// resource record, exactly like the fpDNS collection described in
// Section III-A.
//
// All per-query state — caches, counters, upstream message IDs, scratch wire
// buffers — is sharded per server, so the cluster can run one worker
// goroutine per server (see StartStream) without any locking on the hot
// path. Resolve itself is single-threaded: one caller at a time, as before.
package resolver

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/telemetry"
)

// Errors reported by the cluster.
var (
	ErrNoUpstream = errors.New("resolver: no upstream authority configured")
	ErrChainLoop  = errors.New("resolver: CNAME chain too long")
)

// maxChainDepth bounds CNAME chain following.
const maxChainDepth = 8

// maxCacheTTL caps how long a cached answer lives, whatever TTL the
// authority gave it; shorter TTLs, 0 included, are honoured as given.
const maxCacheTTL = 24 * time.Hour

// upstreamRetries is how many times a failed upstream exchange is retried
// before the query is answered SERVFAIL. Transport errors (timeouts, socket
// failures) trigger retries; well-formed negative responses do not.
const upstreamRetries = 1

// Query is one client resolution request. Time is the cluster's clock: the
// caches expire and reclaim entries by it, and the resolve path reads no
// wall clock for that, so a caller answering packets sets it once per batch.
// Category carries the workload's ground-truth label; it is used only for
// cache-pressure accounting and is invisible to the mining pipeline. A
// question read off the wire carries CategoryOther, so the per-category
// splits of Stats and of the caches' premature evictions are a
// simulation-only reading.
type Query struct {
	Time     time.Time
	ClientID uint32
	Name     string
	Type     dnsmsg.Type
	Category cache.Category
}

// Observation is one tapped answer record. QName is the name whose
// resolution produced the record (the client's question below, the hop's
// question above). For negative responses (NXDOMAIN), RR is the zero value
// and RCode identifies the outcome.
type Observation struct {
	Time     time.Time
	ClientID uint32
	Server   int // index of the RDNS server that produced/received it
	QName    string
	RR       dnsmsg.RR
	RCode    dnsmsg.RCode
	Category cache.Category
}

// Tap consumes observations from one side of the cluster. Taps installed on
// a cluster driven through StartStream are invoked
// concurrently from the per-server workers and must be safe for concurrent
// use.
type Tap interface {
	Observe(ob Observation)
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(Observation)

// Observe calls f(ob).
func (f TapFunc) Observe(ob Observation) { f(ob) }

var _ Tap = TapFunc(nil)

// Response summarizes the answer returned to the client. A hit or a one-hop
// miss answers with a view of the server's cache slot, so Answers is valid
// only until the cluster's next query; a caller that keeps it copies it.
type Response struct {
	RCode     dnsmsg.RCode
	Answers   []dnsmsg.RR
	FromCache bool
}

// Stats aggregates cluster-wide counters. Each server accumulates its own
// shard; Stats() merges the shards on read.
type Stats struct {
	Queries        uint64
	CacheHits      uint64
	CacheMisses    uint64
	UpstreamRTs    uint64 // round trips to the authority (incl. chain + DNSKEY)
	NXDomains      uint64
	NegCacheHits   uint64 // always 0: the cluster keeps no negative cache
	Validations    uint64 // DNSSEC signature verifications performed
	ValidationErrs uint64
	WireBytesUp    uint64 // bytes exchanged with the authority
	UpstreamErrors uint64 // failed exchanges (after retries)
	ServFails      uint64 // SERVFAIL responses returned to clients
	// Per-category splits, indexed by cache.Category.
	QueriesByCategory [2]uint64
	MissesByCategory  [2]uint64
}

// statsShard is one server's counter shard, kept as atomics so Stats(),
// PerServerStats() and metric scrapes can read mid-run without racing the
// worker. The hit path pays as little as possible: Queries, CacheMisses and
// CacheHits are not stored but derived on read — Queries is the sum of the
// per-category query counts, CacheMisses the sum of the per-category miss
// counts, and CacheHits = Queries − CacheMisses, which holds exactly because
// every query either hits the cache or recurses.
type statsShard struct {
	queriesByCategory [2]atomic.Uint64
	missesByCategory  [2]atomic.Uint64
	nxDomains         atomic.Uint64
	upstreamRTs       atomic.Uint64
	validations       atomic.Uint64
	validationErrs    atomic.Uint64
	wireBytesUp       atomic.Uint64
	upstreamErrors    atomic.Uint64
	servFails         atomic.Uint64
}

// snapshot loads the shard into the exported Stats form. The miss counters
// are loaded BEFORE the query counters: a query increments its query
// counter first and its miss counter later, so this order guarantees
// Queries ≥ CacheMisses and the derived CacheHits never underflows.
// In-flight queries may transiently count as hits until their outcome
// lands.
func (sh *statsShard) snapshot() Stats {
	var st Stats
	for i := range sh.missesByCategory {
		st.MissesByCategory[i] = sh.missesByCategory[i].Load()
		st.CacheMisses += st.MissesByCategory[i]
	}
	for i := range sh.queriesByCategory {
		st.QueriesByCategory[i] = sh.queriesByCategory[i].Load()
		st.Queries += st.QueriesByCategory[i]
	}
	st.CacheHits = st.Queries - st.CacheMisses
	st.NXDomains = sh.nxDomains.Load()
	st.UpstreamRTs = sh.upstreamRTs.Load()
	st.Validations = sh.validations.Load()
	st.ValidationErrs = sh.validationErrs.Load()
	st.WireBytesUp = sh.wireBytesUp.Load()
	st.UpstreamErrors = sh.upstreamErrors.Load()
	st.ServFails = sh.servFails.Load()
	return st
}

// add folds o into st.
func (st *Stats) add(o *Stats) {
	st.Queries += o.Queries
	st.CacheHits += o.CacheHits
	st.CacheMisses += o.CacheMisses
	st.UpstreamRTs += o.UpstreamRTs
	st.NXDomains += o.NXDomains
	st.Validations += o.Validations
	st.ValidationErrs += o.ValidationErrs
	st.WireBytesUp += o.WireBytesUp
	st.UpstreamErrors += o.UpstreamErrors
	st.ServFails += o.ServFails
	for i := range st.QueriesByCategory {
		st.QueriesByCategory[i] += o.QueriesByCategory[i]
		st.MissesByCategory[i] += o.MissesByCategory[i]
	}
}

// Upstream is the authoritative side the cluster recurses to: anything
// that answers a wire-format DNS query with a wire-format response. The
// in-process authority.Server satisfies it, and also offers the append form
// of the contract (dnsmsg.WireHandler), which the cluster calls when it is
// there, handing in each server's own response buffer; an upstream with
// only HandleWire costs one copy per response. Implementations must not
// retain the query slice after returning (the cluster reuses wire buffers),
// and must be safe for concurrent calls when the cluster is driven through
// StartStream.
type Upstream = dnsmsg.Handler

// Cluster is a set of simulated recursive DNS servers.
type Cluster struct {
	servers  []*server
	upstream dnsmsg.WireHandler
	opts     options
	below    Tap
	above    Tap
	keys     map[string]ed25519.PublicKey
	keysMu   sync.Mutex // guards keys; held across the DNSKEY fetch so each zone key is fetched once
}

// server is one RDNS server: its cache plus every piece of mutable
// per-query state, so a dedicated worker goroutine can drive it without
// synchronizing with its siblings.
type server struct {
	idx   int
	cache *cache.LRU[cache.Key, cacheValue]
	stats statsShard
	msgID uint16 // upstream message-ID counter, independent of any stat

	// Upstream exchange scratch: the query wire, the response wire the
	// upstream appends into, and the Message it is unpacked into. One
	// exchange's response is readable until the server's next exchange.
	queryBuf []byte
	respBuf  []byte
	resp     dnsmsg.Message

	// Telemetry (nil / unused unless WithTelemetry was given). latSample is
	// touched only by the server's owning goroutine.
	latHist   *telemetry.Histogram
	latSample uint64

	// Query-level event log (nil unless WithQueryLog was given). qev is the
	// preallocated scratch event for the sampled query in flight, so the
	// logged path stores fields instead of allocating.
	qrec *qlog.Recorder
	qev  qlog.Event
}

type options struct {
	numServers    int
	cacheSize     int
	cachePolicy   cache.PolicyKind
	validate      bool
	deprioritizer func(name string) bool
	telemetry     *telemetry.Registry
	qlog          *qlog.Log
}

// Option configures a Cluster.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithServers sets the number of RDNS servers in the cluster (default 4).
func WithServers(n int) Option {
	return optionFunc(func(o *options) {
		if n > 0 {
			o.numServers = n
		}
	})
}

// WithCacheSize sets each server's cache capacity in entries (default 1<<16).
func WithCacheSize(n int) Option {
	return optionFunc(func(o *options) {
		if n > 0 {
			o.cacheSize = n
		}
	})
}

// WithCachePolicy selects the eviction policy for each server's cache
// (default cache.PolicyLRU — the policy every paper measurement runs
// under; SIEVE is for the capacity sweeps).
func WithCachePolicy(p cache.PolicyKind) Option {
	return optionFunc(func(o *options) { o.cachePolicy = p })
}

// WithValidation enables DNSSEC validation of signed answers (Section VI-B).
func WithValidation(enabled bool) Option {
	return optionFunc(func(o *options) { o.validate = enabled })
}

// WithDeprioritizer installs the Section VI-A caching mitigation: answers
// whose query name matches pred are cached at the lowest priority (next
// eviction victim), so one-time disposable entries stop displacing useful
// records. The predicate typically wraps a mined zone matcher.
func WithDeprioritizer(pred func(name string) bool) Option {
	return optionFunc(func(o *options) { o.deprioritizer = pred })
}

// WithTelemetry registers the cluster's live counters with reg: per-server
// query/hit/miss/eviction series, cluster-wide upstream counters, and a
// sampled per-query latency histogram. All metrics are read-time functions
// over the per-server atomic shards, so the resolve hot path costs the same
// with or without a registry (except the 1-in-16 latency sample). A nil
// registry disables everything.
func WithTelemetry(reg *telemetry.Registry) Option {
	return optionFunc(func(o *options) { o.telemetry = reg })
}

// WithQueryLog attaches a query-level event log: each server gets its
// own recorder and emits one structured event per head-sampled query —
// name, qtype, outcome, cache evidence, eviction cause, authority round
// trips, latency. A nil log (the default) keeps the hot path exactly as
// before: one nil check per query, zero allocations (guarded by
// AllocsPerRun tests).
func WithQueryLog(l *qlog.Log) Option {
	return optionFunc(func(o *options) { o.qlog = l })
}

// NewCluster builds a cluster recursing to upstream.
func NewCluster(upstream Upstream, opts ...Option) (*Cluster, error) {
	if upstream == nil || upstream == (*authority.Server)(nil) {
		return nil, ErrNoUpstream
	}
	o := options{
		numServers: 4,
		cacheSize:  1 << 16,
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	c := &Cluster{
		upstream: dnsmsg.AsWireHandler(upstream),
		opts:     o,
		keys:     make(map[string]ed25519.PublicKey),
	}
	for i := 0; i < o.numServers; i++ {
		c.servers = append(c.servers, &server{
			idx:   i,
			cache: cache.New[cache.Key, cacheValue](o.cacheSize, o.cachePolicy),
			qrec:  o.qlog.NewRecorder(i), // nil log → nil recorder
		})
	}
	c.registerMetrics(o.telemetry)
	return c, nil
}

// registerMetrics wires the cluster into a telemetry registry. Per-server
// series carry a server label in the metric name; counters that rarely
// differ across servers are exported cluster-wide to bound the series count.
func (c *Cluster) registerMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	hists := make([]*telemetry.Histogram, len(c.servers))
	for i, s := range c.servers {
		s.latHist = new(telemetry.Histogram)
		hists[i] = s.latHist
		sh := &s.stats
		srv := s
		label := `{server="` + strconv.Itoa(i) + `"}`
		reg.CounterFunc("resolver_queries_total"+label,
			"Client queries handled.",
			func() uint64 { return sh.snapshot().Queries })
		reg.CounterFunc("resolver_cache_hits_total"+label,
			"Positive-cache hits.",
			func() uint64 { return sh.snapshot().CacheHits })
		reg.CounterFunc("resolver_cache_misses_total"+label,
			"Positive-cache misses (recursed upstream).",
			func() uint64 { return sh.snapshot().CacheMisses })
		reg.GaugeFunc("resolver_cache_entries"+label,
			"Entries currently in the positive cache.",
			func() float64 { return float64(srv.cache.Len()) })
		liveLabel := `{server="` + strconv.Itoa(i) + `",state="live"}`
		reg.GaugeFunc("resolver_cache_entries_by_state"+liveLabel,
			"Positive-cache entries by liveness: live entries vs expired entries awaiting timer-wheel reclaim.",
			func() float64 { return float64(srv.cache.LiveLen()) })
		expLabel := `{server="` + strconv.Itoa(i) + `",state="expired"}`
		reg.GaugeFunc("resolver_cache_entries_by_state"+expLabel,
			"Positive-cache entries by liveness: live entries vs expired entries awaiting timer-wheel reclaim.",
			func() float64 { return float64(srv.cache.Len() - srv.cache.LiveLen()) })
		reg.CounterFunc("resolver_cache_evictions_total"+label,
			"Live entries evicted from the positive cache.",
			func() uint64 { return srv.cache.Stats().Evictions })
	}
	reg.CounterFunc("resolver_upstream_roundtrips_total",
		"Round trips to the authority across all servers.",
		func() uint64 { return c.Stats().UpstreamRTs })
	reg.CounterFunc("resolver_upstream_errors_total",
		"Upstream exchanges that failed after retries.",
		func() uint64 { return c.Stats().UpstreamErrors })
	reg.CounterFunc("resolver_nxdomains_total",
		"NXDOMAIN answers returned to clients.",
		func() uint64 { return c.Stats().NXDomains })
	reg.CounterFunc("resolver_servfails_total",
		"SERVFAIL answers returned to clients.",
		func() uint64 { return c.Stats().ServFails })
	reg.CounterFunc("resolver_wire_bytes_up_total",
		"Bytes exchanged with the authority.",
		func() uint64 { return c.Stats().WireBytesUp })
	reg.CounterFunc("resolver_validations_total",
		"DNSSEC signature verifications performed.",
		func() uint64 { return c.Stats().Validations })
	reg.CounterFunc("resolver_validation_errors_total",
		"DNSSEC validations that failed.",
		func() uint64 { return c.Stats().ValidationErrs })
	reg.HistogramFunc("resolver_latency_ns",
		"Sampled per-query wall time in nanoseconds (1 query in 16).",
		func() telemetry.HistogramSnapshot { return telemetry.SnapshotHistograms(hists...) })
}

// SetTaps installs the below/above observation taps; either may be nil.
// Must not be called while a StartStream run is in flight.
func (c *Cluster) SetTaps(below, above Tap) {
	c.below = below
	c.above = above
}

// Stats returns the cluster counters, merged across the per-server shards.
// Safe to call while a StartStream run is in flight; counts
// from in-flight queries land atomically.
func (c *Cluster) Stats() Stats {
	var out Stats
	for _, s := range c.servers {
		shard := s.stats.snapshot()
		out.add(&shard)
	}
	return out
}

// PerServerStats returns each server's own counter shard, indexed by server.
// Safe to call mid-run, like Stats.
func (c *Cluster) PerServerStats() []Stats {
	out := make([]Stats, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.stats.snapshot()
	}
	return out
}

// NumServers returns the number of servers in the cluster.
func (c *Cluster) NumServers() int { return len(c.servers) }

// FlushQueryLog drains each server's query-log recorder into the log's
// sinks (a no-op without WithQueryLog). Call it only while the cluster
// is quiesced — between Resolve calls, or at a stream barrier — so the
// drain cannot race the workers. Unlike qlog.Log.Flush it touches only
// this cluster's recorders, which makes it safe when several clusters
// share one log and only this one is quiesced.
func (c *Cluster) FlushQueryLog() {
	for _, s := range c.servers {
		s.qrec.Drain()
	}
}

// CacheStats returns per-server cache statistics.
func (c *Cluster) CacheStats() []cache.Stats {
	out := make([]cache.Stats, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.cache.Stats()
	}
	return out
}

// cacheValue is what a positive cache entry stores: the full answer section
// for the queried (name, type). One record — nearly every RRset a hop
// caches — lives in the value itself, so in the cache slot; only a larger
// set or a CNAME chain keeps a slice of its own in many.
type cacheValue struct {
	one  [1]dnsmsg.RR
	many []dnsmsg.RR
}

// answers returns the value's records. For a one-record value they are a
// view of v, so a view of the cache slot v lies in.
func (v *cacheValue) answers() []dnsmsg.RR {
	if v.many != nil {
		return v.many
	}
	return v.one[:]
}

// Resolve processes one client query through the cluster. It is not safe
// for concurrent use; parallel callers should use StartStream, which fans
// the load out across per-server workers.
func (c *Cluster) Resolve(q Query) (Response, error) {
	return c.resolveOn(c.servers[c.pickServer(q.ClientID)], q, nil)
}

// latSampleMask samples 1 query in 64 for the latency histogram — still
// thousands of samples over a day's traffic, while amortizing the two
// clock reads (which cost ~100ns on hosts without vDSO time) far below
// the hit path's own cost; every unsampled query pays only a counter
// increment and a mask test.
const latSampleMask = 63

// resolveOn processes one query on server s, timing a 1-in-64 sample when
// telemetry is enabled and recording a 1-in-N event when a query log is
// attached. latSample and the qlog recorder belong to the server's owning
// goroutine, so both sampling decisions cost no synchronization; when both
// fire on the same query they share one pair of clock reads. name is nil,
// or the question's name as dnsmsg.AppendSoleQuestion reads it off the wire,
// standing in for q.Name (see doResolve).
func (c *Cluster) resolveOn(s *server, q Query, name []byte) (Response, error) {
	logged := s.qrec.Sample()
	timed := false
	if s.latHist != nil {
		s.latSample++
		timed = s.latSample&latSampleMask == 0
	}
	if !logged && !timed {
		return c.doResolve(s, q, name, nil)
	}
	var ev *qlog.Event
	if logged {
		s.qev = qlog.Event{Time: q.Time, Client: q.ClientID}
		ev = &s.qev
	}
	start := time.Now()
	resp, err := c.doResolve(s, q, name, ev)
	elapsed := uint64(time.Since(start))
	if timed {
		s.latHist.Observe(elapsed)
	}
	if logged {
		ev.LatencyNs = elapsed
		if err != nil {
			ev.Outcome = qlog.OutcomeError
		}
		s.qrec.Emit(*ev)
	}
	return resp, err
}

// doResolve is the resolution path proper. In parallel mode every server is
// driven by its own worker, so everything touched here — caches, counters,
// wire buffers — must live on s or be concurrent-safe. ev is non-nil only
// for queries the event log sampled; the outcome branches fill it in.
//
// Only the cache probe differs by caller: Resolve's q.Name is normalized
// and looked up, while a non-nil name — a normalized wire question — is
// probed by its bytes, q.Name ignored. A hit then takes the cached
// key's own spelling of the name and allocates nothing; a miss spells it
// once to recurse. Everything after the probe is one body.
func (c *Cluster) doResolve(s *server, q Query, name []byte, ev *qlog.Event) (Response, error) {
	// Drive the timer wheel off query time: whole buckets of dead entries
	// are reclaimed here, so occupancy tracks live entries and eviction
	// victims are never already-expired. Same-second queries return in two
	// atomic loads; nothing allocates (guarded by AllocsPerRun tests).
	s.cache.Advance(q.Time)
	var cv *cacheValue
	var hit bool
	if name == nil {
		q.Name = dnsname.Normalize(q.Name)
		cv, hit = s.cache.Get(cache.Key{Name: q.Name, Type: q.Type}, q.Time)
	} else if q.Name, cv, hit = cache.GetName(s.cache, name, q.Type, q.Time); !hit {
		q.Name = string(name)
	}

	s.stats.queriesByCategory[q.Category].Add(1)
	if ev != nil {
		ev.Name = q.Name
		ev.Qtype = q.Type.String()
	}
	// Hits are derived on read (see statsShard), so the hottest branch
	// increments nothing beyond the query counter above.
	if hit {
		if ev != nil {
			ev.Outcome = qlog.OutcomeHit
			ev.CacheHit = true
		}
		answers := cv.answers()
		c.emitBelow(s, q, answers, dnsmsg.RCodeNoError)
		return Response{RCode: dnsmsg.RCodeNoError, Answers: answers, FromCache: true}, nil
	}
	s.stats.missesByCategory[q.Category].Add(1)

	answers, rcode, err := c.recurse(q, s, ev)
	if errors.Is(err, errUpstreamUnavailable) {
		// The authority could not be reached after retries: degrade to
		// SERVFAIL, as a production resolver would, rather than failing
		// the simulation.
		s.stats.servFails.Add(1)
		if ev != nil {
			ev.Outcome = qlog.OutcomeServFail
		}
		c.emitBelow(s, q, nil, dnsmsg.RCodeServFail)
		return Response{RCode: dnsmsg.RCodeServFail}, nil
	}
	if err != nil {
		return Response{}, err
	}
	if rcode == dnsmsg.RCodeNXDomain {
		// Not cached: the paper's resolvers did not honour RFC 2308
		// negative caching, so every repeat of a dead name goes above.
		s.stats.nxDomains.Add(1)
		if ev != nil {
			ev.Outcome = qlog.OutcomeNXDomain
		}
		c.emitBelow(s, q, nil, dnsmsg.RCodeNXDomain)
		return Response{RCode: rcode}, nil
	}
	if ev != nil {
		ev.Outcome = qlog.OutcomeNoError
	}
	c.emitBelow(s, q, answers, rcode)
	return Response{RCode: rcode, Answers: answers}, nil
}

// recurse performs the iterative resolution against the upstream authority,
// following CNAME chains and caching every RRset it learns. When ev is
// non-nil it accumulates the authority round-trip count and wall time.
func (c *Cluster) recurse(q Query, s *server, ev *qlog.Event) ([]dnsmsg.RR, dnsmsg.RCode, error) {
	var chain []dnsmsg.RR
	name := q.Name
	for depth := 0; ; depth++ {
		if depth >= maxChainDepth {
			return nil, 0, fmt.Errorf("%w: %q", ErrChainLoop, q.Name)
		}
		var authStart time.Time
		if ev != nil {
			authStart = time.Now()
		}
		resp, err := c.exchange(s, name, q.Type)
		if ev != nil {
			ev.AuthRTTs++
			ev.AuthNs += uint64(time.Since(authStart))
		}
		if err != nil {
			return nil, 0, err
		}
		c.emitAbove(s, q, resp)
		if resp.Header.RCode != dnsmsg.RCodeNoError {
			if len(chain) > 0 {
				// A broken chain still returns the prefix gathered so far,
				// mirroring common resolver behaviour; the final rcode wins.
				return chain, resp.Header.RCode, nil
			}
			return nil, resp.Header.RCode, nil
		}
		// resp is the server's exchange scratch and validate may fetch a
		// DNSKEY through it, so everything this hop still needs is copied
		// out first; resp is dead from here on.
		v, n, rrsig := splitRRSIG(resp.Answers)
		var answers []dnsmsg.RR
		if n > 0 {
			// Cache this hop's RRset under the name queried at this hop; its
			// records are read from the cache slot from here on.
			answers = c.cachePut(s, cache.Key{Name: name, Type: q.Type}, v,
				cacheTTL(v.answers()[0].TTL), q, ev).answers()
		}
		if c.opts.validate && rrsig.Type == dnsmsg.TypeRRSIG {
			c.validate(s, q, &rrsig, answers)
		}
		if n == 0 {
			return chain, dnsmsg.RCodeNoError, nil // NODATA
		}
		last := answers[len(answers)-1]
		cname := last.Type == dnsmsg.TypeCNAME && q.Type != dnsmsg.TypeCNAME
		if chain == nil && !cname {
			// One hop, the usual case: the answer is the slot's view.
			return answers, dnsmsg.RCodeNoError, nil
		}
		// The next put may evict this hop's slot (at capacity 1, or when it
		// went in at the cold end), so a chain copies its records first,
		// into room for the usual one-record answer at its end.
		if chain == nil {
			chain = make([]dnsmsg.RR, 0, len(answers)+1)
		}
		chain = append(chain, answers...)
		if cname {
			name = last.RData.Text()
			continue
		}
		if name != q.Name {
			// Terminal hop of a chain: replace the original name's entry
			// with the full chain so a later hit replays the complete
			// answer section. The chain lives only as long as its
			// shortest-lived link.
			c.cachePut(s, cache.Key{Name: q.Name, Type: q.Type}, cacheValue{many: chain},
				cacheTTL(minChainTTL(chain)), q, ev)
		}
		return chain, dnsmsg.RCodeNoError, nil
	}
}

// cachePut stores a positive entry, demoting deprioritized names to the
// cold end of the LRU. For logged queries the eviction outcome feeds the
// event's cause field; a query performing several insertions (a CNAME
// chain) keeps the most severe cause it observed.
func (c *Cluster) cachePut(s *server, key cache.Key, v cacheValue, ttl time.Duration, q Query, ev *qlog.Event) *cacheValue {
	var p *cacheValue
	var e cache.Eviction
	if c.opts.deprioritizer != nil && c.opts.deprioritizer(key.Name) {
		p, e = s.cache.PutLowPriorityEv(key, v, ttl, q.Category, q.Time)
	} else {
		p, e = s.cache.PutEv(key, v, ttl, q.Category, q.Time)
	}
	if ev == nil || !e.Evicted {
		return p
	}
	cause := qlog.EvictExpired
	if e.Premature {
		if e.Victim == cache.CategoryDisposable {
			cause = qlog.EvictLiveDisposable
		} else {
			cause = qlog.EvictLiveOther
		}
	}
	if cause > ev.Evict {
		ev.Evict = cause
	}
	return p
}

func minChainTTL(chain []dnsmsg.RR) uint32 {
	min := chain[0].TTL
	for _, rr := range chain[1:] {
		if rr.TTL < min {
			min = rr.TTL
		}
	}
	return min
}

// errUpstreamUnavailable marks an exchange that failed after retries.
var errUpstreamUnavailable = errors.New("resolver: upstream unavailable")

// exchange performs one wire-level round trip with the authority, retrying
// transport failures upstreamRetries times. The message ID comes from the
// server's own counter (wrapping uint16), decoupled from any statistic. The
// query is built in, the response appended to and unpacked into the server's
// reusable scratch, so the returned Message is only valid until the next
// exchange on s: callers copy out the records they keep (the strings in them
// stay valid; names the reply echoes are name itself, not copies).
func (c *Cluster) exchange(s *server, name string, qtype dnsmsg.Type) (*dnsmsg.Message, error) {
	var lastErr error
	for attempt := 0; attempt <= upstreamRetries; attempt++ {
		s.stats.upstreamRTs.Add(1)
		s.msgID++
		var b dnsmsg.Builder
		b.Begin(s.queryBuf[:0], dnsmsg.Header{ID: s.msgID, RecursionDesired: true})
		if err := b.Question(name, qtype, dnsmsg.ClassIN); err != nil {
			return nil, fmt.Errorf("encode upstream query: question %q: %w", name, err)
		}
		s.queryBuf = b.Bytes()
		s.stats.wireBytesUp.Add(uint64(len(s.queryBuf)))
		respWire, err := c.upstream.AppendHandleWire(s.respBuf[:0], s.queryBuf)
		if err != nil {
			lastErr = err
			continue
		}
		s.respBuf = respWire // keep any growth for the next exchange
		s.stats.wireBytesUp.Add(uint64(len(respWire)))
		if err := s.resp.UnpackReply(respWire, name); err != nil {
			lastErr = err
			continue
		}
		return &s.resp, nil
	}
	s.stats.upstreamErrors.Add(1)
	return nil, fmt.Errorf("%w: %v", errUpstreamUnavailable, lastErr)
}

// validate verifies the RRSIG over answers, fetching (and caching in the
// cluster-wide key map) the zone DNSKEY over the wire on first use. The key
// map mutex is held across the fetch so concurrent workers fetch each zone
// key exactly once, like the sequential path.
func (c *Cluster) validate(s *server, q Query, rrsig *dnsmsg.RR, answers []dnsmsg.RR) {
	zone := signerZone(rrsig.RData.Text())
	c.keysMu.Lock()
	pub, ok := c.keys[zone]
	if !ok {
		// The DNSKEY fetch is a genuine upstream round trip; the key is
		// parsed from the response like a real validating resolver.
		resp, err := c.exchange(s, zone, dnsmsg.TypeDNSKEY)
		if err != nil || resp.Header.RCode != dnsmsg.RCodeNoError {
			c.keysMu.Unlock()
			s.stats.validationErrs.Add(1)
			return
		}
		c.emitAbove(s, q, resp)
		var dnskey *dnsmsg.RR
		for i := range resp.Answers {
			if resp.Answers[i].Type == dnsmsg.TypeDNSKEY {
				dnskey = &resp.Answers[i]
				break
			}
		}
		if dnskey == nil {
			c.keysMu.Unlock()
			s.stats.validationErrs.Add(1)
			return
		}
		pub, err = authority.PublicKeyFromDNSKEY(*dnskey)
		if err != nil {
			c.keysMu.Unlock()
			s.stats.validationErrs.Add(1)
			return
		}
		c.keys[zone] = pub
	}
	c.keysMu.Unlock()
	s.stats.validations.Add(1)
	if err := authority.Verify(pub, *rrsig, answers); err != nil {
		s.stats.validationErrs.Add(1)
	}
}

// signerZone extracts the signer-zone field from RRSIG rdata
// ("<type> <alg> <labels> <ttl> <zone> sig=... keytag=...").
func signerZone(rdata string) string {
	fields := 0
	start := 0
	for i := 0; i <= len(rdata); i++ {
		if i == len(rdata) || rdata[i] == ' ' {
			if i > start {
				if fields == 4 {
					return rdata[start:i]
				}
				fields++
			}
			start = i + 1
		}
	}
	return ""
}

// splitRRSIG copies a response's answer section out of the exchange scratch
// into the value a cache entry keeps — one record inline, more in a slice of
// their own — and returns how many records that is and, apart from them, the
// first RRSIG (a zero RR if there is none).
func splitRRSIG(answers []dnsmsg.RR) (v cacheValue, n int, rrsig dnsmsg.RR) {
	sig := -1
	for i := range answers {
		if answers[i].Type == dnsmsg.TypeRRSIG {
			sig, rrsig = i, answers[i]
			break
		}
	}
	n = len(answers)
	if sig >= 0 {
		n--
	}
	if n > 1 {
		v.many = make([]dnsmsg.RR, 0, n)
	}
	for i := range answers {
		switch {
		case i == sig:
		case v.many != nil:
			v.many = append(v.many, answers[i])
		default:
			v.one[0] = answers[i]
		}
	}
	return v, n, rrsig
}

// cacheTTL is how long an answer carrying the authority's ttl stays cached.
func cacheTTL(ttl uint32) time.Duration {
	return min(time.Duration(ttl)*time.Second, maxCacheTTL)
}

// pickServer pins each client to one server, as an ISP load balancer does:
// a cheap integer mix keeps adjacent client IDs from clustering on one
// server.
func (c *Cluster) pickServer(clientID uint32) int {
	n := uint64(len(c.servers))
	if n == 1 {
		return 0
	}
	h := uint64(clientID) * 0x9E3779B97F4A7C15
	return int((h >> 32) % n)
}

func (c *Cluster) emitBelow(s *server, q Query, answers []dnsmsg.RR, rcode dnsmsg.RCode) {
	if c.below == nil {
		return
	}
	if len(answers) == 0 {
		c.below.Observe(Observation{Time: q.Time, ClientID: q.ClientID, Server: s.idx, QName: q.Name, RCode: rcode, Category: q.Category})
		return
	}
	for _, rr := range answers {
		if rr.Type == dnsmsg.TypeRRSIG {
			continue
		}
		c.below.Observe(Observation{Time: q.Time, ClientID: q.ClientID, Server: s.idx, QName: q.Name, RR: rr, RCode: rcode, Category: q.Category})
	}
}

func (c *Cluster) emitAbove(s *server, q Query, resp *dnsmsg.Message) {
	if c.above == nil {
		return
	}
	qname := q.Name
	if len(resp.Questions) > 0 {
		qname = resp.Questions[0].Name
	}
	if resp.Header.RCode != dnsmsg.RCodeNoError || len(resp.Answers) == 0 {
		c.above.Observe(Observation{Time: q.Time, ClientID: q.ClientID, Server: s.idx, QName: qname, RCode: resp.Header.RCode, Category: q.Category})
		return
	}
	for _, rr := range resp.Answers {
		if rr.Type == dnsmsg.TypeRRSIG {
			continue
		}
		c.above.Observe(Observation{Time: q.Time, ClientID: q.ClientID, Server: s.idx, QName: qname, RR: rr, RCode: resp.Header.RCode, Category: q.Category})
	}
}
