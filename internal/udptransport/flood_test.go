package udptransport

import (
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/features"
	"dnsnoise/internal/livescore"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/resolver"
)

const (
	// floodPackets is large enough that stray runtime allocations (timers,
	// the odd background goroutine) round away, small enough for CI.
	floodPackets = 50_000
	floodWarmup  = 2_000
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// floodAuthority is the namespace the floods are answered from: a real
// authority.Server whose names cover every kind of answer it gives — a
// static A, a CNAME owner, a wildcard match, a synthesized multi-record A
// and an NXDOMAIN with its SOA.
func floodAuthority(t testing.TB) *authority.Server {
	t.Helper()
	srv := authority.NewServer()
	static, err := authority.NewZone("bench.test")
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range []dnsmsg.RR{
		{Name: "www.bench.test", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.IPv4(198, 18, 0, 1)},
		{Name: "alias.bench.test", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: 300, RData: dnsmsg.Text("www.bench.test")},
		{Name: "*.wild.bench.test", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.IPv4(198, 18, 0, 2)},
	} {
		if err := static.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	synth, err := authority.NewZone("dyn.bench.test", authority.WithSynth(
		func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
			for i := range 3 {
				dst = append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 1, RData: dnsmsg.IPv4(198, 18, 1, byte(i))})
			}
			return dst, true
		}))
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []*authority.Zone{static, synth} {
		if err := srv.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// floodName is one name a flood rotates over, with the reply it must get.
type floodName struct {
	name    string
	rcode   dnsmsg.RCode
	answers uint16
	dig     bool // sent as dig sends it, with an EDNS0 OPT record
}

// authorityFlood is one name of each kind of answer floodAuthority gives.
var authorityFlood = []floodName{
	{"www.bench.test", dnsmsg.RCodeNoError, 1, false},
	{"alias.bench.test", dnsmsg.RCodeNoError, 1, false},
	{"x7f3k.wild.bench.test", dnsmsg.RCodeNoError, 1, false},
	{"a1b2c3d4.dyn.bench.test", dnsmsg.RCodeNoError, 3, false},
	{"nope.bench.test", dnsmsg.RCodeNXDomain, 0, false},
	{"0.0.0.0.1.0.0.4e.abc123.dyn.bench.test", dnsmsg.RCodeNoError, 3, true},
}

// checkFloodZeroAlloc floods a default-configuration front door, answering
// with h, over a real loopback socket from one connected client and holds
// process-wide Mallocs per packet to zero: the price of the whole serve
// path, syscall layer and handler included, which the AllocsPerRun guards
// in alloc_test.go can only measure up to the socket boundary. The queries
// rotate over names, each checked for its RCODE and answer count. The
// client loop is itself allocation-free (preallocated queries and buffer,
// no per-attempt state), so a nonzero reading implicates the serve path.
// The floods send one query with the OPT record dig attaches by default:
// the query real clients send is held to zero too.
//
// The reading is rounded to the nearest whole allocation first: a handful
// of stray runtime allocations across tens of thousands of packets is
// measurement floor, a systematic per-packet allocation is not. Mallocs is
// process-wide, so no flood test may run beside another test (no
// t.Parallel). Under the race detector the reading is logged, not held to
// zero (race_test.go).
func checkFloodZeroAlloc(t *testing.T, what string, h dnsmsg.WireHandler, names []floodName, opts ...ServerOption) {
	t.Helper()
	srv, err := Serve(h, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	type floodQuery struct {
		wire    []byte
		rcode   dnsmsg.RCode
		answers uint16
	}
	var queries []floodQuery
	for _, q := range names {
		wire, err := dnsmsg.NewQuery(1, q.name, dnsmsg.TypeA).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if q.dig {
			wire = appendCookieOPT(wire)
		}
		queries = append(queries, floodQuery{wire, q.rcode, q.answers})
	}
	buf := make([]byte, maxPacket)
	exchange := func(n int) {
		for i := 0; i < n; i++ {
			q := &queries[i%len(queries)]
			if _, err := conn.Write(q.wire); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(time.Second))
			got, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("packet %d: %v", i, err)
			}
			if got < 12 || dnsmsg.RCode(buf[3]&0x0F) != q.rcode || binary.BigEndian.Uint16(buf[6:]) != q.answers {
				t.Fatalf("packet %d: rcode %d, %d answers; want %d, %d",
					i, buf[3]&0x0F, binary.BigEndian.Uint16(buf[6:]), q.rcode, q.answers)
			}
		}
	}
	exchange(floodWarmup)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exchange(floodPackets)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / floodPackets
	t.Logf("%d packets: %.3f allocs/packet, %.1f B/packet", floodPackets, allocs,
		float64(after.TotalAlloc-before.TotalAlloc)/floodPackets)
	if math.Round(allocs) > 0 && !raceEnabled {
		t.Errorf("%s allocates %.3f allocs/packet socket to socket, want 0", what, allocs)
	}
}

// TestServeFloodZeroAlloc is the end-to-end twin of
// TestServePacketPathZeroAlloc: recv, dispatch, the authority's answer and
// send on a real socket.
func TestServeFloodZeroAlloc(t *testing.T) {
	checkFloodZeroAlloc(t, "serve path", floodAuthority(t), authorityFlood)
}

// TestServeFloodZeroAllocRecursive is the flood answered by a resolver
// shard recursing to floodAuthority, as dnsnoise-serve -recursive serves:
// after the warm-up every name is a cache hit (the 1 s TTLs lapse a few
// times, and each lapse costs one miss), held to zero allocations a packet.
// The alias is answered with its whole chain, and the NXDOMAIN name is
// left out, since no negative answer is cached and each of its queries is
// a miss.
func TestServeFloodZeroAllocRecursive(t *testing.T) {
	c, err := resolver.NewCluster(floodAuthority(t), resolver.WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	var names []floodName
	for _, n := range authorityFlood {
		switch {
		case n.rcode == dnsmsg.RCodeNXDomain:
			continue
		case strings.HasPrefix(n.name, "alias."):
			n.answers = 2 // the CNAME and its target's A
		}
		names = append(names, n)
	}
	checkFloodZeroAlloc(t, "recursive serve path", c.Shard(0), names)
}

// TestServeFloodZeroAllocScored is the same flood down the -score serve
// path: every packet runs through a livescore scorer backed by a primed
// streaming pipeline, whose verdict lookup and name intake must stay
// allocation-free too. No re-score runs, so the window stays open and the
// flood rotates over six names it has noted: the distinct-name flood is
// livescore.TestScoreWireFreshNamesZeroAlloc.
func TestServeFloodZeroAllocScored(t *testing.T) {
	// A trivially fitted classifier: only the observe-side intake runs
	// during the flood, so its quality is irrelevant.
	clf := mlearn.NewDecisionTree()
	x := make([][]float64, 4)
	for i := range x {
		x[i] = make([]float64, features.Dim)
	}
	if err := clf.Fit(x, []bool{true, false, false, false}); err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewStreamingPipeline(clf, core.MinerConfig{},
		core.StreamingConfig{NumServers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the zone above the flooded names so every packet takes the
	// disposable-hit path, the most work the lookup ever does.
	pipe.Prime([]core.Finding{{Zone: "bench.test", Depth: 3, Confidence: 0.99}})
	eng := livescore.NewEngine(pipe)
	checkFloodZeroAlloc(t, "scored serve path", floodAuthority(t), authorityFlood,
		WithScorer(func(int) Scorer { return eng.NewScorer() }))
}
