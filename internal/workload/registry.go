// Package workload generates the synthetic ISP traffic that substitutes for
// the paper's proprietary Comcast traces. It models the namespace (a
// registry of disposable and non-disposable zones, built from the paper's
// published examples), the authoritative data behind it, and the client
// query stream (diurnal load, Zipf popularity, per-date calibration
// profiles).
//
// Ground truth is known by construction: every generated zone carries a
// disposable/non-disposable label, which the evaluation uses for classifier
// training and accuracy measurement, exactly replacing the paper's manually
// labeled 398 + 401 zones.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/labelgen"
)

// Kind identifies the behavioural family of a simulated zone.
type Kind int

// Zone families. The five disposable kinds mirror the industries the paper
// catalogues in Figure 11.
const (
	KindNonDisposable Kind = iota + 1
	KindCDN
	KindTelemetry   // eSoft-style system metrics over DNS
	KindReputation  // McAfee-style file reputation lookups
	KindMeasurement // Google ipv6-exp-style measurement beacons
	KindDNSBL       // reversed-IP blocklist queries
	KindTracking    // cookie-tracking / ad-beacon tokens
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNonDisposable:
		return "non-disposable"
	case KindCDN:
		return "cdn"
	case KindTelemetry:
		return "telemetry"
	case KindReputation:
		return "reputation"
	case KindMeasurement:
		return "measurement"
	case KindDNSBL:
		return "dnsbl"
	case KindTracking:
		return "tracking"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Disposable reports whether the kind generates disposable domains.
func (k Kind) Disposable() bool {
	switch k {
	case KindTelemetry, KindReputation, KindMeasurement, KindDNSBL, KindTracking:
		return true
	default:
		return false
	}
}

// ZoneSpec describes one simulated zone: its identity, behaviour, and the
// knobs that shape the records it serves.
type ZoneSpec struct {
	// Zone is the origin under which this spec generates names, e.g.
	// "avqs.mcafee.com" or "vexora.com".
	Zone string
	// E2LD is the registrable domain, e.g. "mcafee.com".
	E2LD string
	Kind Kind
	// TTL is the answer TTL in seconds. Mutable across date profiles.
	TTL uint32
	// Weight is the zone's share of its category's query volume.
	Weight float64
	// HostPool holds the finite name pool of a non-disposable or CDN zone
	// as full names ("www.vexora.com"), hottest first. NextName hands them
	// out as they are and the authority's host index is keyed by these same
	// strings, so a pool name exists once.
	HostPool []string
	// RDataPool bounds distinct rdata for pool-based zones.
	RDataPool int
	// RepeatP is the probability a disposable query re-asks a recently
	// generated name instead of minting a fresh one ("not strictly looked
	// up once", Section IV-B).
	RepeatP float64
	// RDataVaries marks signaling zones whose answers change per fetch
	// (reputation verdicts etc.), inflating distinct-RR counts.
	RDataVaries bool
	// AAAAShare is the fraction of queries asking AAAA instead of A.
	AAAAShare float64
	// CNAMETarget, when set, makes every host in HostPool a CNAME into the
	// target CDN zone (domain sharding).
	CNAMETarget *ZoneSpec

	recent     []string // ring of recently minted disposable names
	recentI    int
	synthN     atomic.Uint64 // counter for varying rdata; atomic because the authority answers from concurrent resolver workers
	baseWeight float64       // weight before any profile boost
}

// Disposable reports the ground-truth label of the zone.
func (z *ZoneSpec) Disposable() bool { return z.Kind.Disposable() }

// ringSize is how many recently minted names a disposable zone keeps.
const ringSize = 32

// rememberName records a freshly minted disposable name for possible repeats.
func (z *ZoneSpec) rememberName(name string) {
	if len(z.recent) < ringSize {
		z.recent = append(z.recent, name)
		return
	}
	z.recent[z.recentI] = name
	z.recentI = (z.recentI + 1) % ringSize
}

// recentName returns a recently minted name, or "" if none exist yet.
func (z *ZoneSpec) recentName(rng *rand.Rand) string {
	if len(z.recent) == 0 {
		return ""
	}
	return z.recent[rng.Intn(len(z.recent))]
}

// NextName mints the next query name (and query type) for this zone.
func (z *ZoneSpec) NextName(rng *rand.Rand) (string, dnsmsg.Type) {
	return z.nextName(rng, true)
}

// nextName is NextName with minting optional. With mint false a fresh
// disposable name is spelled, drawing exactly what minting draws, but not
// made a string: nextName returns, and the repeat ring keeps, the zone
// origin in its place (Generator.BurnDay).
func (z *ZoneSpec) nextName(rng *rand.Rand, mint bool) (string, dnsmsg.Type) {
	qtype := dnsmsg.TypeA
	if z.AAAAShare > 0 && rng.Float64() < z.AAAAShare {
		qtype = dnsmsg.TypeAAAA
	}
	if !z.Disposable() {
		if len(z.HostPool) == 0 {
			return z.Zone, qtype
		}
		// Within-zone popularity: low indexes are hot (quadratic skew).
		// Volume concentration across the namespace comes from the zone
		// Zipf law plus popular zones' small pools; within a zone the
		// skew is milder, so a popular zone's whole pool stays warm (the
		// paper's Alexa zones have healthy cache hit rates throughout,
		// Figure 7).
		u := rng.Float64()
		idx := int(float64(len(z.HostPool)) * u * u)
		if idx >= len(z.HostPool) {
			idx = len(z.HostPool) - 1
		}
		return z.HostPool[idx], qtype
	}
	if z.RepeatP > 0 && rng.Float64() < z.RepeatP {
		if name := z.recentName(rng); name != "" {
			return name, qtype
		}
	}
	// A fresh name costs its string and nothing else: the longest grammar
	// (telemetry, ~100 bytes) and a zone origin fit the stack buffer.
	var buf [192]byte
	b := buf[:0]
	switch z.Kind {
	case KindTelemetry:
		b = labelgen.AppendESoftName(b, rng, rng.Uint32()%1_000_000)
	case KindReputation:
		b = labelgen.AppendMcAfeeName(b, rng)
	case KindMeasurement:
		b = labelgen.AppendGoogleIPv6Name(b, rng)
	case KindDNSBL:
		b = labelgen.AppendDNSBLName(b, rng)
	default: // KindTracking
		b = labelgen.AppendTrackingName(b, rng)
	}
	if !mint {
		z.rememberName(z.Zone)
		return z.Zone, qtype
	}
	name := string(append(append(b, '.'), z.Zone...))
	z.rememberName(name)
	return name, qtype
}

// Registry is the full simulated namespace.
type Registry struct {
	NonDisposable []*ZoneSpec
	CDN           []*ZoneSpec
	Disposable    []*ZoneSpec
	rng           *rand.Rand
}

// RegistryConfig sizes the namespace. Zero values take defaults chosen to
// mirror the paper's labeled-set sizes.
type RegistryConfig struct {
	Seed int64
	// NonDisposableZones is the count of ordinary Zipf-popular zones
	// (default 401, the paper's non-disposable training-set size).
	NonDisposableZones int
	// DisposableZones is the count of disposable zones beyond the named
	// flagship examples (default 398 total disposable zones).
	DisposableZones int
	// HostsPerZoneMax caps the host pool of a non-disposable zone
	// (default 64).
	HostsPerZoneMax int
}

// cdnFanout is the fraction of non-disposable zones whose www is a CNAME
// into a CDN zone.
const cdnFanout = 0.25

func (c *RegistryConfig) setDefaults() {
	if c.NonDisposableZones == 0 {
		c.NonDisposableZones = 401
	}
	if c.DisposableZones == 0 {
		c.DisposableZones = 398
	}
	if c.HostsPerZoneMax == 0 {
		c.HostsPerZoneMax = 64
	}
}

// flagship zones with the paper's literal origins.
type flagship struct {
	zone string
	e2ld string
	kind Kind
	ttl  uint32
}

var flagships = []flagship{
	{zone: "device.trans.manage.esoft.com", e2ld: "esoft.com", kind: KindTelemetry, ttl: 300},
	{zone: "avqs.mcafee.com", e2ld: "mcafee.com", kind: KindReputation, ttl: 60},
	{zone: "ipv6-exp.l.google.com", e2ld: "google.com", kind: KindMeasurement, ttl: 300},
	{zone: "zen.dnsbl.example-bl.org", e2ld: "example-bl.org", kind: KindDNSBL, ttl: 300},
	{zone: "metric.2o7-style.net", e2ld: "2o7-style.net", kind: KindTracking, ttl: 300},
}

// cdnSeeds are the Akamai-style CDN 2LDs from the paper's footnote.
var cdnSeeds = []string{
	"akamai.net", "akamaiedge.net", "akamaihd.net", "edgesuite.net",
	"akadns.net", "cloudshard.net",
}

// NewRegistry builds the namespace deterministically from cfg.Seed.
func NewRegistry(cfg RegistryConfig) *Registry {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := &Registry{rng: rng}

	// CDN zones first, so customer zones can point at them. CDN shard
	// pools are large and churn slowly: clients also query them directly
	// (the sharded URLs embed the names), so Figure 2 sees an Akamai
	// series and Figure 5 sees its new-RR discovery decay gradually as the
	// pool gets covered.
	for i, origin := range cdnSeeds {
		spec := &ZoneSpec{
			Zone:      origin,
			E2LD:      origin,
			Kind:      KindCDN,
			TTL:       120,
			Weight:    4 / float64(i+1),
			RDataPool: 64,
		}
		pool := 200 + rng.Intn(400)
		seen := make(map[string]bool, pool)
		for len(spec.HostPool) < pool {
			labels := labelgen.CDNShardName(rng, pool*2)
			h := labels[0] + "." + labels[1]
			if !seen[h] {
				seen[h] = true
				spec.HostPool = append(spec.HostPool, h+"."+origin)
			}
		}
		r.CDN = append(r.CDN, spec)
	}

	// Google's non-disposable presence: hottest zone in the mix.
	google := &ZoneSpec{
		Zone: "google.com", E2LD: "google.com", Kind: KindNonDisposable,
		TTL: 300, Weight: 120, RDataPool: 16, AAAAShare: 0.08,
	}
	for _, h := range []string{
		"www", "mail", "apis", "accounts", "drive", "docs", "maps",
		"news", "play", "translate", "calendar", "plus", "talk",
		"picasaweb", "code", "groups", "sites", "books", "scholar",
	} {
		google.HostPool = append(google.HostPool, h+"."+google.Zone)
	}
	r.NonDisposable = append(r.NonDisposable, google)

	// Ordinary non-disposable zones with Zipf-ranked weights.
	tlds := []string{"com", "com", "com", "net", "org", "co.uk", "de", "info"}
	usedZones := map[string]bool{"google.com": true}
	for i := 0; i < cfg.NonDisposableZones-1; i++ {
		var e2ld string
		for {
			e2ld = labelgen.ZoneName(rng) + "." + tlds[rng.Intn(len(tlds))]
			if !usedZones[e2ld] {
				usedZones[e2ld] = true
				break
			}
		}
		spec := &ZoneSpec{
			Zone: e2ld, E2LD: e2ld, Kind: KindNonDisposable,
			TTL:       chooseNonDisposableTTL(rng),
			Weight:    50 / math.Pow(float64(i+2), 1.2),
			RDataPool: 4,
			AAAAShare: 0.03,
		}
		// Popular zones run small, hot host pools; the long tail of cold
		// names lives under unpopular zones. rankFrac in [0,1] walks from
		// the head to the tail of the Zipf ranking.
		rankFrac := float64(i) / float64(cfg.NonDisposableZones)
		hostCap := 8 + int(rankFrac*float64(cfg.HostsPerZoneMax-8))
		if hostCap < 4 {
			hostCap = 4
		}
		nHosts := 3 + rng.Intn(hostCap)
		seen := make(map[string]bool, nHosts)
		for len(spec.HostPool) < nHosts {
			h := labelgen.HostName(rng)
			if !seen[h] {
				seen[h] = true
				spec.HostPool = append(spec.HostPool, h+"."+e2ld)
			}
		}
		if rng.Float64() < cdnFanout {
			spec.CNAMETarget = r.CDN[rng.Intn(len(r.CDN))]
		}
		r.NonDisposable = append(r.NonDisposable, spec)
	}

	// Flagship disposable zones.
	for i, f := range flagships {
		spec := &ZoneSpec{
			Zone: f.zone, E2LD: f.e2ld, Kind: f.kind, TTL: f.ttl,
			Weight:      12 / float64(i+1),
			RepeatP:     0.03,
			RDataVaries: f.kind == KindReputation || f.kind == KindDNSBL,
		}
		if f.kind == KindMeasurement {
			spec.AAAAShare = 0.4 // the ipv6 experiment asks both families
			spec.Weight = 30     // Google dominates disposable volume
		}
		r.Disposable = append(r.Disposable, spec)
	}

	// Generated disposable zones across the five kinds. Most get their own
	// e2LD; some share an e2LD through distinct sub-zones (the paper found
	// 14,488 zones under 12,397 2LDs, a ratio of ~1.17).
	kinds := []Kind{KindTelemetry, KindReputation, KindMeasurement, KindDNSBL, KindTracking}
	subZonePrefixes := []string{"avqs", "gti", "bl", "t", "sig", "q", "beacon", "m"}
	remaining := cfg.DisposableZones - len(flagships)
	usedOrigins := make(map[string]bool)
	var lastE2LD string
	for i := 0; i < remaining; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		var e2ld string
		if lastE2LD != "" && rng.Float64() < 0.15 {
			e2ld = lastE2LD // second disposable sub-zone under the same 2LD
		} else {
			for {
				e2ld = labelgen.ZoneName(rng) + "." + tlds[rng.Intn(len(tlds))]
				if !usedZones[e2ld] {
					usedZones[e2ld] = true
					break
				}
			}
		}
		var zone string
		for attempt := 0; ; attempt++ {
			if attempt >= len(subZonePrefixes) {
				// All sub-zone slots under this 2LD are taken: move to a
				// fresh registrable domain.
				for {
					e2ld = labelgen.ZoneName(rng) + "." + tlds[rng.Intn(len(tlds))]
					if !usedZones[e2ld] {
						usedZones[e2ld] = true
						break
					}
				}
				attempt = 0
			}
			zone = subZonePrefixes[rng.Intn(len(subZonePrefixes))] + "." + e2ld
			if !usedOrigins[zone] {
				usedOrigins[zone] = true
				break
			}
		}
		lastE2LD = e2ld
		r.Disposable = append(r.Disposable, &ZoneSpec{
			Zone: zone, E2LD: e2ld, Kind: kind,
			TTL:         300,
			Weight:      8 / float64(i+3),
			RepeatP:     0.03,
			RDataVaries: kind == KindReputation || kind == KindDNSBL,
		})
	}
	return r
}

func chooseNonDisposableTTL(rng *rand.Rand) uint32 {
	ttls := []uint32{300, 600, 1800, 3600, 3600, 14400, 14400, 86400, 86400}
	return ttls[rng.Intn(len(ttls))]
}

// AllZones returns every spec in a stable order.
func (r *Registry) AllZones() []*ZoneSpec {
	out := make([]*ZoneSpec, 0, len(r.NonDisposable)+len(r.CDN)+len(r.Disposable))
	out = append(out, r.NonDisposable...)
	out = append(out, r.CDN...)
	out = append(out, r.Disposable...)
	return out
}

// TrainingLabels returns the paper-style labeled training zones: every
// disposable zone (the paper hand-labeled 398 of them, each with at least
// 15 observed disposable domains) and the maxNegatives most popular
// non-disposable zones (the paper's 401 were drawn from the top-1000 Alexa
// list). Popularity, not coverage, picks the negatives: the paper did not
// label cold long-tail zones, and training on them would teach the
// classifier that a zero cache-hit-rate is normal for legitimate domains.
func (r *Registry) TrainingLabels(maxNegatives int) map[string]bool {
	out := make(map[string]bool, len(r.Disposable)+maxNegatives)
	for _, z := range r.Disposable {
		out[z.Zone] = true
	}
	// NonDisposable is built in descending-weight order (Zipf ranks), so a
	// prefix IS the popular set.
	for i, z := range r.NonDisposable {
		if i >= maxNegatives {
			break
		}
		out[z.Zone] = false
	}
	return out
}

// GroundTruth maps zone origin -> disposable label for every zone.
func (r *Registry) GroundTruth() map[string]bool {
	out := make(map[string]bool)
	for _, z := range r.AllZones() {
		out[z.Zone] = z.Disposable()
	}
	return out
}

// BuildAuthority constructs the authoritative server answering for every
// registered zone. Every zone answers through a synthesizer, so no record is
// stored: a disposable zone answers any child name (makeSynth), a
// non-disposable or CDN zone its host pool, with optional CNAME sharding into
// a CDN (makeHostSynth). Passing a non-nil signerRand additionally signs the
// listed origins (for the DNSSEC experiments).
func (r *Registry) BuildAuthority(signerRand *rand.Rand, signedOrigins map[string]bool) (*authority.Server, error) {
	srv := authority.NewServer()
	for _, spec := range r.AllZones() {
		var synth authority.SynthFunc
		if spec.Disposable() {
			synth = makeSynth(spec)
		} else {
			var err error
			if synth, err = makeHostSynth(spec); err != nil {
				return nil, err
			}
		}
		opts := []authority.ZoneOption{authority.WithSynth(synth)}
		if signerRand != nil && signedOrigins[spec.Zone] {
			signer, err := authority.NewSigner(spec.Zone, signerRand)
			if err != nil {
				return nil, fmt.Errorf("signer for %q: %w", spec.Zone, err)
			}
			opts = append(opts, authority.WithSigner(signer))
		}
		z, err := authority.NewZone(spec.Zone, opts...)
		if err != nil {
			return nil, fmt.Errorf("zone %q: %w", spec.Zone, err)
		}
		if err := srv.AddZone(z); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// makeHostSynth builds the answerer for the host pool of a non-disposable or
// CDN zone. Host i answers A with the zone's address i mod RDataPool, and
// AAAA likewise when the zone asks AAAA at all; the hottest host (typically
// www) of a sharded zone is a CNAME into the CDN, whatever the qtype. Another
// qtype for a host is NODATA, a name outside the pool NXDOMAIN. Everything an
// answer holds is fixed here — the addresses, spelled once for the zone
// rather than once a record or an answer, the CNAME and the TTL — so a
// profile that changes the spec later does not change the served data.
func makeHostSynth(spec *ZoneSpec) (authority.SynthFunc, error) {
	origin := dnsname.Normalize(spec.Zone)
	hosts := make(map[string]int, len(spec.HostPool))
	for i, host := range spec.HostPool {
		name := dnsname.Normalize(host)
		if !dnsname.IsSubdomainOf(name, origin) {
			return nil, fmt.Errorf("%w: %q not under %q", authority.ErrBadRecord, host, origin)
		}
		hosts[name] = i
	}
	// Deterministic per-zone rdata assignment keeps authority data stable
	// across runs with the same registry seed.
	h := dnsname.Hash(spec.Zone)
	pool := max(spec.RDataPool, 1)
	a := make([]dnsmsg.RData, pool)
	var aaaa []dnsmsg.RData
	if spec.AAAAShare > 0 {
		aaaa = make([]dnsmsg.RData, pool)
	}
	for i := range a {
		a[i] = syntheticIPv4(h, uint64(i))
		if aaaa != nil {
			aaaa[i] = syntheticIPv6(h, uint64(i))
		}
	}
	ttl := spec.TTL
	var cname *dnsmsg.RR
	if t := spec.CNAMETarget; t != nil {
		target := t.HostPool[h%uint64(len(t.HostPool))]
		cname = &dnsmsg.RR{Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: ttl, RData: dnsmsg.Text(target)}
	}
	return func(name []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
		i, ok := hosts[string(name)]
		switch {
		case !ok:
			return dst, false
		case i == 0 && cname != nil:
			return append(dst, *cname), true
		case qtype == dnsmsg.TypeA:
			return append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: ttl, RData: a[i%pool]}), true
		case qtype == dnsmsg.TypeAAAA && aaaa != nil:
			return append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: ttl, RData: aaaa[i%pool]}), true
		}
		return dst, true // NODATA: the host has no records of qtype
	}, nil
}

// makeSynth builds the programmatic answerer for a disposable zone.
// Reputation/DNSBL zones answer from 127.0.0.0/16 with verdict-dependent
// (varying) addresses; others answer stable per-name addresses.
func makeSynth(spec *ZoneSpec) authority.SynthFunc {
	return func(name []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
		if qtype != dnsmsg.TypeA && qtype != dnsmsg.TypeAAAA {
			return dst, false
		}
		h := dnsname.Hash(name)
		if spec.RDataVaries {
			// Signaling answer: a small RRset whose addresses encode the
			// verdict payload and change on every authoritative fetch.
			// Multi-record answers are why disposable traffic contributes
			// disproportionately many distinct RRs (paper: 60% of RRs vs
			// 33% of resolved names).
			n := 2 + int(h%3)
			for i := 0; i < n; i++ {
				sn := spec.synthN.Add(1)
				rdata := signalIPv4(sn)
				if qtype == dnsmsg.TypeAAAA {
					rdata = signalIPv6(sn)
				}
				dst = append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: spec.TTL, RData: rdata})
			}
			return dst, true
		}
		// Stable multi-record answers: measurement/telemetry/tracking names
		// carry 1-3 probe endpoints, fixed per name. Together with the
		// varying signaling sets above, disposable names average ~2-3
		// distinct RRs each, which is what lifts the disposable share of
		// distinct RRs above its share of resolved names (paper: 60% of
		// RRs vs 33% of names).
		n := 1 + int(h>>8)%3
		for i := 0; i < n; i++ {
			rdata := syntheticIPv4(h, uint64(i))
			if qtype == dnsmsg.TypeAAAA {
				rdata = syntheticIPv6(h, uint64(i))
			}
			dst = append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: spec.TTL, RData: rdata})
		}
		return dst, true
	}
}

// signalIPv4 and signalIPv6 encode the serial number of a signaling answer
// in an address: 127.0.0.0/16 like a DNSBL verdict, or the 100::/64 discard
// prefix.
func signalIPv4(sn uint64) dnsmsg.RData {
	return dnsmsg.IPv4(127, 0, byte(sn>>8), byte(sn))
}

func signalIPv6(sn uint64) dnsmsg.RData {
	return ipv6Text("100:0:0:0:0:0:", (sn>>8)%65536, sn%65536)
}

func syntheticIPv4(h, salt uint64) dnsmsg.RData {
	v := h + salt*0x9E3779B9
	// 198.18.0.0/15 is reserved for benchmarking — fitting for a simulator.
	return dnsmsg.IPv4(198, 18+byte(v>>16)%2, byte(v>>8), byte(v))
}

func syntheticIPv6(h, salt uint64) dnsmsg.RData {
	v := h + salt*0x9E3779B9
	return ipv6Text("2001:db8:0:0:0:0:", (v>>16)%65536, v%65536)
}

// ipv6Text spells prefix and the last two groups of an address, with strconv
// into a stack buffer: AAAA rdata travels as text (see dnsmsg.RData), and the
// authority runs this once per record of every disposable AAAA answer, where
// fmt cost four allocations to the one the string needs.
func ipv6Text(prefix string, a, b uint64) dnsmsg.RData {
	var buf [32]byte
	out := append(buf[:0], prefix...)
	out = strconv.AppendUint(out, a, 16)
	out = append(out, ':')
	out = strconv.AppendUint(out, b, 16)
	return dnsmsg.Text(string(out))
}
