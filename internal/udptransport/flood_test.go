package udptransport

import (
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/features"
	"dnsnoise/internal/livescore"
	"dnsnoise/internal/mlearn"
)

const (
	// floodPackets is large enough that stray runtime allocations (timers,
	// the odd background goroutine) round away, small enough for CI.
	floodPackets = 50_000
	floodWarmup  = 2_000
)

// checkFloodZeroAlloc floods a default-configuration front door over a real
// loopback socket from one connected client and holds process-wide Mallocs
// per packet to zero: the price of the whole serve path, syscall layer
// included, which the AllocsPerRun guards in alloc_test.go can only measure
// up to the socket boundary. The client loop is itself allocation-free
// (preallocated buffers, no per-attempt state), so a nonzero reading
// implicates the serve path.
//
// The reading is rounded to the nearest whole allocation first: a handful
// of stray runtime allocations across tens of thousands of packets is
// measurement floor, a systematic per-packet allocation is not. Mallocs is
// process-wide, so no flood test may run beside another test (no
// t.Parallel). The race detector does not perturb the count — both floods
// read 0.000 allocs/packet under -race — so the assertion is not skipped
// there.
func checkFloodZeroAlloc(t *testing.T, what string, opts ...ServerOption) {
	t.Helper()
	srv, err := Serve(echoWireHandler{}, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	wire, err := dnsmsg.NewQuery(1, "alloc.bench.test", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, maxPacket)
	exchange := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(wire); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := conn.Read(buf); err != nil {
				t.Fatalf("packet %d: %v", i, err)
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
	if math.Round(allocs) > 0 {
		t.Errorf("%s allocates %.3f allocs/packet socket to socket, want 0", what, allocs)
	}
}

// TestServeFloodZeroAlloc is the end-to-end twin of
// TestServePacketPathZeroAlloc: recv, dispatch and send on a real socket.
func TestServeFloodZeroAlloc(t *testing.T) {
	checkFloodZeroAlloc(t, "serve path")
}

// TestServeFloodZeroAllocScored is the same flood down the -score serve
// path: every packet runs through a livescore scorer backed by a primed
// streaming pipeline, whose verdict lookup and name staging must stay
// allocation-free too. The engine runs intake-only (no wall-clock
// re-score): its drain goroutine copies a name only when a window first
// notes it, and the flood asks for one name.
func TestServeFloodZeroAllocScored(t *testing.T) {
	// A trivially fitted classifier: only the observe-side intake runs
	// during the flood, so its quality is irrelevant.
	clf := mlearn.NewDecisionTree(mlearn.TreeConfig{})
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
	// Prime the zone above the flooded name so every packet takes the
	// disposable-hit path, the most work the lookup ever does.
	pipe.Prime([]core.Finding{{Zone: "bench.test", Depth: 3, Confidence: 0.99}})
	eng := livescore.NewEngine(pipe)
	eng.Start(0)
	defer eng.Close()
	checkFloodZeroAlloc(t, "scored serve path",
		WithScorer(func(int) Scorer { return eng.NewScorer() }))
}
