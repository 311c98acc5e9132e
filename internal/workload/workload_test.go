package workload

import (
	"math/rand"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/resolver"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	return NewRegistry(RegistryConfig{
		Seed:               7,
		NonDisposableZones: 40,
		DisposableZones:    30,
		HostsPerZoneMax:    16,
	})
}

func TestRegistryComposition(t *testing.T) {
	r := testRegistry(t)
	if len(r.NonDisposable) != 40 {
		t.Errorf("non-disposable zones = %d, want 40", len(r.NonDisposable))
	}
	if len(r.Disposable) != 30 {
		t.Errorf("disposable zones = %d, want 30", len(r.Disposable))
	}
	if len(r.CDN) != len(cdnSeeds) {
		t.Errorf("cdn zones = %d, want %d", len(r.CDN), len(cdnSeeds))
	}
	// Flagships must be present with the paper's literal origins.
	gt := r.GroundTruth()
	for _, f := range flagships {
		disp, ok := gt[f.zone]
		if !ok || !disp {
			t.Errorf("flagship %q missing or mislabeled", f.zone)
		}
	}
	if gt["google.com"] {
		t.Error("google.com (non-disposable presence) mislabeled")
	}
}

func TestRegistryDefaultsMatchPaperTrainingSets(t *testing.T) {
	r := NewRegistry(RegistryConfig{Seed: 1})
	if len(r.Disposable) != 398 {
		t.Errorf("default disposable zones = %d, want 398", len(r.Disposable))
	}
	if len(r.NonDisposable) != 401 {
		t.Errorf("default non-disposable zones = %d, want 401", len(r.NonDisposable))
	}
}

func TestRegistryDeterminism(t *testing.T) {
	a := NewRegistry(RegistryConfig{Seed: 42, NonDisposableZones: 20, DisposableZones: 20})
	b := NewRegistry(RegistryConfig{Seed: 42, NonDisposableZones: 20, DisposableZones: 20})
	za, zb := a.AllZones(), b.AllZones()
	if len(za) != len(zb) {
		t.Fatalf("zone counts differ: %d vs %d", len(za), len(zb))
	}
	for i := range za {
		if za[i].Zone != zb[i].Zone || za[i].Kind != zb[i].Kind {
			t.Fatalf("zone %d differs: %v vs %v", i, za[i].Zone, zb[i].Zone)
		}
	}
}

func TestZoneSpecNextNameDisposableIsFresh(t *testing.T) {
	r := testRegistry(t)
	rng := rand.New(rand.NewSource(3))
	var mcafee *ZoneSpec
	for _, z := range r.Disposable {
		if z.Zone == "avqs.mcafee.com" {
			mcafee = z
			break
		}
	}
	if mcafee == nil {
		t.Fatal("mcafee flagship missing")
	}
	seen := make(map[string]int)
	for i := 0; i < 500; i++ {
		name, qtype := mcafee.NextName(rng)
		if !dnsname.IsSubdomainOf(name, mcafee.Zone) {
			t.Fatalf("name %q escaped zone", name)
		}
		if qtype != dnsmsg.TypeA {
			t.Fatalf("mcafee qtype = %v", qtype)
		}
		seen[name]++
	}
	if len(seen) < 450 {
		t.Errorf("only %d distinct names in 500 draws; disposable names should be ~unique", len(seen))
	}
}

func TestZoneSpecNextNameNonDisposableIsBounded(t *testing.T) {
	r := testRegistry(t)
	rng := rand.New(rand.NewSource(4))
	zone := r.NonDisposable[1]
	seen := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		name, _ := zone.NextName(rng)
		seen[name] = true
	}
	if len(seen) > len(zone.HostPool) {
		t.Errorf("distinct names %d exceeds host pool %d", len(seen), len(zone.HostPool))
	}
}

// ask sends (name, qtype) to srv as a wire query and decodes the reply the
// socket would send.
func ask(t *testing.T, srv *authority.Server, name string, qtype dnsmsg.Type) *dnsmsg.Message {
	t.Helper()
	query, err := dnsmsg.NewQuery(0, name, qtype).Encode()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := srv.HandleWire(query)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestBuildAuthorityAnswersEveryKind(t *testing.T) {
	r := testRegistry(t)
	srv, err := r.BuildAuthority(nil, nil)
	if err != nil {
		t.Fatalf("BuildAuthority: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, z := range r.AllZones() {
		name, qtype := z.NextName(rng)
		resp := ask(t, srv, name, qtype)
		if resp.Header.RCode != dnsmsg.RCodeNoError {
			t.Errorf("zone %s (%v): %s -> %v", z.Zone, z.Kind, name, resp.Header.RCode)
			continue
		}
		if len(resp.Answers) == 0 {
			t.Errorf("zone %s: empty answer for %s", z.Zone, name)
		}
	}
}

func TestBuildAuthorityNXForUnknownChildren(t *testing.T) {
	r := testRegistry(t)
	srv, err := r.BuildAuthority(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Non-disposable zones must NXDOMAIN unknown children; disposable zones
	// answer anything.
	resp := ask(t, srv, "definitely-not-a-host.google.com", dnsmsg.TypeA)
	if resp.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Errorf("unknown child of google.com = %v, want NXDOMAIN", resp.Header.RCode)
	}
	resp = ask(t, srv, "anything.at.all.avqs.mcafee.com", dnsmsg.TypeA)
	if resp.Header.RCode != dnsmsg.RCodeNoError {
		t.Errorf("disposable synth = %v, want NOERROR", resp.Header.RCode)
	}
}

func TestSignalingZonesVaryRData(t *testing.T) {
	r := testRegistry(t)
	srv, err := r.BuildAuthority(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const name = "0.0.0.0.1.0.0.4e.13cfus2drmdq3j8cafidezr8l6.avqs.mcafee.com"
	a := ask(t, srv, name, dnsmsg.TypeA).Answers
	b := ask(t, srv, name, dnsmsg.TypeA).Answers
	if len(a) < 2 {
		t.Fatalf("signaling answer should be a multi-record set, got %d", len(a))
	}
	if a[0].RData == b[0].RData {
		t.Error("signaling rdata should vary across fetches")
	}
	for _, rr := range a {
		if ip := rr.RData.IPv4(); ip[0] != 127 || ip[1] != 0 {
			t.Errorf("reputation verdict %v outside 127.0.0.0/16", rr)
		}
	}
}

func TestCNAMEShardingIntoCDN(t *testing.T) {
	r := testRegistry(t)
	srv, err := r.BuildAuthority(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, z := range r.NonDisposable {
		if z.CNAMETarget == nil {
			continue
		}
		found = true
		owner := z.HostPool[0]
		resp := ask(t, srv, owner, dnsmsg.TypeA)
		if len(resp.Answers) != 1 || resp.Answers[0].Type != dnsmsg.TypeCNAME {
			t.Fatalf("sharded host %s answers = %+v, want CNAME", owner, resp.Answers)
		}
		if target := resp.Answers[0].RData.Text(); !dnsname.IsSubdomainOf(target, z.CNAMETarget.Zone) {
			t.Errorf("CNAME target %q not in CDN zone %q", target, z.CNAMETarget.Zone)
		}
		break
	}
	if !found {
		t.Skip("no sharded zone in this small registry draw")
	}
}

func TestProfileTTLMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	feb := FebruaryProfile(time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC))
	counts := make(map[uint32]int)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[feb.SampleDisposableTTL(rng)]++
	}
	oneShare := float64(counts[1]) / n
	if oneShare < 0.24 || oneShare > 0.32 {
		t.Errorf("TTL=1 share = %.3f, want ~0.28 (Figure 14 February)", oneShare)
	}
	zeroShare := float64(counts[0]) / n
	if zeroShare < 0.004 || zeroShare > 0.013 {
		t.Errorf("TTL=0 share = %.4f, want ~0.008", zeroShare)
	}
	dec := DecemberProfile(time.Date(2011, 12, 30, 0, 0, 0, 0, time.UTC))
	counts = make(map[uint32]int)
	for i := 0; i < n; i++ {
		counts[dec.SampleDisposableTTL(rng)]++
	}
	if float64(counts[300])/n < 0.45 {
		t.Errorf("December TTL=300 share = %.3f, want dominant (Figure 14)", float64(counts[300])/n)
	}
}

func TestPaperDatesMonotoneGrowth(t *testing.T) {
	dates := PaperDates()
	if len(dates) != 6 {
		t.Fatalf("dates = %d, want 6", len(dates))
	}
	for i := 1; i < len(dates); i++ {
		if dates[i].DisposableFrac < dates[i-1].DisposableFrac {
			t.Errorf("DisposableFrac not monotone at %s", dates[i].Label)
		}
		if dates[i].MeasurementBoost < dates[i-1].MeasurementBoost {
			t.Errorf("MeasurementBoost not monotone at %s", dates[i].Label)
		}
	}
}

func TestApplyProfileRedrawsTTLs(t *testing.T) {
	r := testRegistry(t)
	rng := rand.New(rand.NewSource(8))
	feb := FebruaryProfile(time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC))
	feb.ApplyToRegistry(r, rng)
	febOnes := 0
	for _, z := range r.Disposable {
		if z.TTL == 1 {
			febOnes++
		}
	}
	dec := DecemberProfile(time.Date(2011, 12, 30, 0, 0, 0, 0, time.UTC))
	dec.ApplyToRegistry(r, rng)
	dec300 := 0
	for _, z := range r.Disposable {
		if z.TTL == 300 {
			dec300++
		}
	}
	if febOnes == 0 {
		t.Error("February profile produced no TTL=1 zones")
	}
	if dec300 < len(r.Disposable)/3 {
		t.Errorf("December profile produced only %d/%d TTL=300 zones", dec300, len(r.Disposable))
	}
}

func TestGenerateDayVolumeAndOrder(t *testing.T) {
	r := testRegistry(t)
	g := NewGenerator(r, GeneratorConfig{Seed: 9, Clients: 100, BaseEventsPerDay: 5000})
	p := FebruaryProfile(time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC))
	var events []resolver.Query
	s := g.StartDay(p)
	for q, ok := s.Next(); ok; q, ok = s.Next() {
		events = append(events, q)
	}
	if len(events) != 5000 {
		t.Fatalf("events = %d, want 5000", len(events))
	}
	day := p.Date
	for i, e := range events {
		if e.Time.Before(day) || !e.Time.Before(day.Add(24*time.Hour)) {
			t.Fatalf("event %d time %v outside day", i, e.Time)
		}
		if i > 0 && e.Time.Before(events[i-1].Time) {
			t.Fatalf("events not time-ordered at %d", i)
		}
	}
}

func TestGenerateDayMixMatchesProfile(t *testing.T) {
	r := testRegistry(t)
	g := NewGenerator(r, GeneratorConfig{Seed: 10, Clients: 100, BaseEventsPerDay: 20000})
	p := DecemberProfile(time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC))
	var disp, total int
	gt := r.GroundTruth()
	day := g.StartDay(p)
	for q, ok := day.Next(); ok; q, ok = day.Next() {
		total++
		if q.Category == cache.CategoryDisposable {
			disp++
			// Ground truth consistency: the queried name must fall under a
			// disposable zone.
			found := false
			for zone, d := range gt {
				if d && dnsname.IsSubdomainOf(q.Name, zone) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("disposable-labeled query %q under no disposable zone", q.Name)
			}
		}
	}
	got := float64(disp) / float64(total)
	if got < p.DisposableFrac*0.8 || got > p.DisposableFrac*1.2 {
		t.Errorf("disposable query share = %.4f, want ~%.4f", got, p.DisposableFrac)
	}
}

// TestGenerateDayEarlyStop: a day stopped after 100 draws holds the rest,
// and the generator starts the next day on a stream of its own.
func TestGenerateDayEarlyStop(t *testing.T) {
	r := testRegistry(t)
	g := NewGenerator(r, GeneratorConfig{Seed: 11, Clients: 10, BaseEventsPerDay: 5000})
	day := g.StartDay(FebruaryProfile(time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC)))
	for i := 0; i < 100; i++ {
		if _, ok := day.Next(); !ok {
			t.Fatalf("day ended after %d draws", i)
		}
	}
	if got := day.Remaining(); got != 4900 {
		t.Errorf("stopped after 100 draws with %d left, want 4900", got)
	}
	if got := g.StartDay(FebruaryProfile(time.Date(2011, 2, 2, 0, 0, 0, 0, time.UTC))).Remaining(); got != 5000 {
		t.Errorf("next day holds %d draws, want 5000", got)
	}
}

func TestDiurnalShape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	offsets := diurnalOffsets(rng, 24000)
	byHour := make([]int, 24)
	for _, off := range offsets {
		byHour[off/time.Hour]++
	}
	if byHour[20] <= byHour[4] {
		t.Errorf("evening (%d) should exceed pre-dawn (%d)", byHour[20], byHour[4])
	}
	if byHour[20] < byHour[4]*2 {
		t.Errorf("diurnal swing too shallow: peak %d vs trough %d", byHour[20], byHour[4])
	}
}

func TestEndToEndDayThroughResolver(t *testing.T) {
	r := testRegistry(t)
	srv, err := r.BuildAuthority(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := resolver.NewCluster(srv, resolver.WithServers(2), resolver.WithCacheSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(r, GeneratorConfig{Seed: 13, Clients: 200, BaseEventsPerDay: 8000})
	p := DecemberProfile(time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC))
	day := g.StartDay(p)
	for q, ok := day.Next(); ok; q, ok = day.Next() {
		if _, err := cluster.Resolve(q); err != nil {
			t.Fatalf("resolve: %v", err)
		}
	}
	st := cluster.Stats()
	if st.Queries == 0 || st.CacheHits == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// NXDOMAIN share of answered queries should be near the profile's
	// NXFrac (typo names occasionally collide with real hosts, so allow
	// slack).
	nxShare := float64(st.NXDomains) / float64(st.Queries)
	if nxShare < p.NXFrac*0.6 || nxShare > p.NXFrac*1.4 {
		t.Errorf("NX share = %.3f, want ~%.3f", nxShare, p.NXFrac)
	}
	// Caching must be effective for the popular non-disposable majority.
	// (At this tiny test volume inter-arrival times routinely exceed TTLs,
	// so the bound is loose; the full-scale experiments see much more.)
	if hr := float64(st.CacheHits) / float64(st.Queries); hr < 0.25 {
		t.Errorf("cluster hit rate = %.3f, implausibly low", hr)
	}
}

func TestKindLabels(t *testing.T) {
	disposables := []Kind{KindTelemetry, KindReputation, KindMeasurement, KindDNSBL, KindTracking}
	for _, k := range disposables {
		if !k.Disposable() {
			t.Errorf("%v should be disposable", k)
		}
	}
	if KindNonDisposable.Disposable() || KindCDN.Disposable() {
		t.Error("non-disposable kinds mislabeled")
	}
	if KindCDN.String() != "cdn" || KindReputation.String() != "reputation" {
		t.Error("Kind.String mismatch")
	}
}

func TestDisposableE2LDRatio(t *testing.T) {
	r := NewRegistry(RegistryConfig{Seed: 20})
	e2lds := map[string]bool{}
	for _, z := range r.Disposable {
		e2lds[z.E2LD] = true
	}
	ratio := float64(len(r.Disposable)) / float64(len(e2lds))
	// Paper: 14,488 zones under 12,397 2LDs (ratio 1.17).
	if ratio < 1.05 || ratio > 1.35 {
		t.Errorf("zones/e2lds ratio = %.2f, want ~1.17", ratio)
	}
}
