package workload

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// storedAuthority builds r's authority the way it was built before host
// pools answered through makeHostSynth: every record of a non-disposable or
// CDN zone added to its Zone, disposable zones synthesized. It is the
// reference makeHostSynth is held to, byte for byte.
func storedAuthority(t *testing.T, r *Registry, signerRand *rand.Rand, signed map[string]bool) *authority.Server {
	t.Helper()
	srv := authority.NewServer()
	for _, spec := range r.AllZones() {
		var opts []authority.ZoneOption
		if spec.Disposable() {
			opts = append(opts, authority.WithSynth(makeSynth(spec)))
		}
		if signed[spec.Zone] {
			signer, err := authority.NewSigner(spec.Zone, signerRand)
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, authority.WithSigner(signer))
		}
		z, err := authority.NewZone(spec.Zone, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !spec.Disposable() {
			storeHostPool(t, z, spec)
		}
		if err := srv.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// storeHostPool adds the records of spec's host pool to z.
func storeHostPool(t *testing.T, z *authority.Zone, spec *ZoneSpec) {
	t.Helper()
	pool := uint64(max(spec.RDataPool, 1))
	h := dnsname.Hash(spec.Zone)
	add := func(rr dnsmsg.RR) {
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	for i, owner := range spec.HostPool {
		if spec.CNAMETarget != nil && i == 0 {
			target := spec.CNAMETarget.HostPool[h%uint64(len(spec.CNAMETarget.HostPool))]
			add(dnsmsg.RR{Name: owner, Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: spec.TTL, RData: dnsmsg.Text(target)})
			continue
		}
		add(dnsmsg.RR{Name: owner, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: spec.TTL, RData: syntheticIPv4(h, uint64(i)%pool)})
		if spec.AAAAShare > 0 {
			add(dnsmsg.RR{Name: owner, Type: dnsmsg.TypeAAAA, Class: dnsmsg.ClassIN, TTL: spec.TTL, RData: syntheticIPv6(h, uint64(i)%pool)})
		}
	}
}

// batteryTypes are the qtypes every battery name is asked with: the two the
// pools hold, the CNAME a sharded host holds, and types no host holds (MX 15
// and ANY 255 have no constant).
var batteryTypes = []dnsmsg.Type{
	dnsmsg.TypeA, dnsmsg.TypeAAAA, dnsmsg.TypeCNAME, dnsmsg.TypeNS, dnsmsg.TypeSOA,
	dnsmsg.TypeTXT, dnsmsg.TypeDNSKEY, dnsmsg.Type(15), dnsmsg.Type(255),
}

// battery lists the names asked of every zone: each host (and its
// upper-case spelling), a name below each host, the apex and a child the
// zone does not hold.
func battery(r *Registry) []string {
	var names []string
	for _, spec := range r.AllZones() {
		names = append(names, spec.Zone, "nope."+spec.Zone)
		for _, host := range spec.HostPool {
			names = append(names, host, strings.ToUpper(host), "x."+host)
		}
	}
	return names
}

// TestHostSynthMatchesStoredRecords: the authority BuildAuthority makes
// answers every battery question with the bytes the stored-record authority
// answers it with — records, NODATA, NXDOMAIN, the SOA, the RRSIG of a
// signed zone — including after every zone's TTL has moved, as a date
// profile moves it: the served data is the data at the build. Each side has
// its own registry from the same seed, so the signaling zones' answer
// counters advance alike.
func TestHostSynthMatchesStoredRecords(t *testing.T) {
	cfg := RegistryConfig{Seed: 3, NonDisposableZones: 120, DisposableZones: 30, HostsPerZoneMax: 32}
	for _, signEvery := range []int{0, 7} {
		name := "unsigned"
		if signEvery > 0 {
			name = "signed"
		}
		t.Run(name, func(t *testing.T) {
			refReg, reg := NewRegistry(cfg), NewRegistry(cfg)
			signed := make(map[string]bool)
			for i, spec := range reg.AllZones() {
				if signEvery > 0 && i%signEvery == 0 {
					signed[spec.Zone] = true
				}
			}
			var refRand, rnd *rand.Rand
			if signEvery > 0 {
				refRand, rnd = rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
			}
			ref := storedAuthority(t, refReg, refRand, signed)
			srv, err := reg.BuildAuthority(rnd, signed)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Registry{refReg, reg} {
				for _, spec := range r.AllZones() {
					spec.TTL += 17
				}
			}
			var want, got []byte
			asked := 0
			for _, qname := range battery(reg) {
				for _, qtype := range batteryTypes {
					query, err := dnsmsg.NewQuery(0x2a, qname, qtype).Encode()
					if err != nil {
						t.Fatal(err)
					}
					if want, err = ref.AppendHandleWire(want[:0], query); err != nil {
						t.Fatal(err)
					}
					if got, err = srv.AppendHandleWire(got[:0], query); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s %v:\n got %x\nwant %x", qname, qtype, got, want)
					}
					asked++
				}
			}
			if st := srv.Stats(); signEvery > 0 && st.Signatures == 0 {
				t.Error("no answer was signed")
			}
			t.Logf("%d questions answered alike", asked)
		})
	}
}

// TestBuildAuthorityRejectsForeignHost: a pool host outside its zone is a
// BuildAuthority error, as adding its record was.
func TestBuildAuthorityRejectsForeignHost(t *testing.T) {
	r := testRegistry(t)
	r.NonDisposable[3].HostPool = append(r.NonDisposable[3].HostPool, "www.elsewhere.example")
	if _, err := r.BuildAuthority(nil, nil); !errors.Is(err, authority.ErrBadRecord) {
		t.Fatalf("BuildAuthority with a foreign host = %v, want ErrBadRecord", err)
	}
}

// TestHostSynthZeroAlloc: a host pool's A, AAAA, CNAME and NODATA answers
// come from values spelled at the build and allocate nothing.
func TestHostSynthZeroAlloc(t *testing.T) {
	r := testRegistry(t)
	srv, err := r.BuildAuthority(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var plain, sharded *ZoneSpec
	for _, spec := range r.NonDisposable {
		if spec.CNAMETarget != nil {
			sharded = spec
		} else if spec.AAAAShare > 0 {
			plain = spec
		}
	}
	if plain == nil || sharded == nil {
		t.Fatal("registry has no plain or no sharded zone")
	}
	host := plain.HostPool[len(plain.HostPool)-1]
	for _, tc := range []struct {
		name    string
		qtype   dnsmsg.Type
		answers int
	}{
		{host, dnsmsg.TypeA, 1},
		{host, dnsmsg.TypeAAAA, 1},
		{sharded.HostPool[0], dnsmsg.TypeA, 1}, // the CNAME
		{host, dnsmsg.TypeTXT, 0},              // NODATA
	} {
		query, err := dnsmsg.NewQuery(0x77, tc.name, tc.qtype).Encode()
		if err != nil {
			t.Fatal(err)
		}
		dst, err := srv.AppendHandleWire(nil, query)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dnsmsg.Decode(dst)
		if err != nil || resp.Header.RCode != dnsmsg.RCodeNoError || len(resp.Answers) != tc.answers {
			t.Fatalf("%s %v = %v, %v; want NOERROR with %d answers", tc.name, tc.qtype, resp, err, tc.answers)
		}
		allocs := testing.AllocsPerRun(200, func() {
			dst, _ = srv.AppendHandleWire(dst[:0], query)
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("%s %v allocated %.1f times per answer, want 0", tc.name, tc.qtype, allocs)
		}
	}
}

// TestAuthorityHeap: the benchmark-size namespace (900 + 398 + 6 CDN zones,
// 36 110 pool hosts) costs its authority at most 3 MiB of heap after GC
// (1.30 MiB on Go 1.24). Stored as 69 813 records, it took 6.10 MiB.
func TestAuthorityHeap(t *testing.T) {
	r := NewRegistry(RegistryConfig{Seed: 1, NonDisposableZones: 900, DisposableZones: 398, HostsPerZoneMax: 128})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv, err := r.BuildAuthority(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(srv)
	heap := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("authority heap: %.2f MiB", heap)
	if heap > 3 {
		t.Errorf("authority holds %.2f MiB after GC, budget 3 MiB", heap)
	}
}
