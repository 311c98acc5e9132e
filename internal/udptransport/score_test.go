package udptransport

import (
	"bytes"
	"testing"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/telemetry"
)

// suffixScorer flags any query whose wire bytes contain the marker label,
// standing in for the real snapshot probe without dragging the miner into
// transport tests (livescore's own tests own that integration). Like the
// real scorer it must not allocate: the alloc guard below runs over it.
type suffixScorer struct{ marker []byte }

func (s suffixScorer) ScoreWire(query []byte) qlog.Verdict {
	if len(query) <= dnsHeaderLen {
		return qlog.VerdictNone
	}
	if bytes.Contains(query[dnsHeaderLen:], s.marker) {
		return qlog.VerdictDisposable
	}
	return qlog.VerdictBenign
}

// TestWithScorerTagsEventsAndCounters drives one benign and one disposable
// query through a scoring server and checks the verdict shows up in every
// surface: the per-verdict packet counters, the per-verdict latency
// histograms, and the sampled qlog events (filterable by verdict).
func TestWithScorerTagsEventsAndCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := qlog.New(qlog.Config{Sample: 1})
	mem := qlog.NewMemorySink(64)
	l.AddSink(mem)
	var made int
	srv, err := Serve(testAuthority(t), "",
		WithServerMetrics(reg), WithServerQueryLog(l),
		WithScorer(func(listener int) Scorer {
			made++
			return suffixScorer{marker: []byte("evil")}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if made != srv.Listeners() {
		t.Fatalf("scorer factory ran %d times for %d listeners", made, srv.Listeners())
	}

	for i, name := range []string{"www.udp.test", "evil.udp.test"} {
		wire, err := dnsmsg.NewQuery(uint16(i+1), name, dnsmsg.TypeA).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exchange("udp", srv.Addr(), wire); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counter(`udp_scored_total{verdict="benign"}`); got != 1 {
		t.Errorf(`udp_scored_total{verdict="benign"} = %d, want 1`, got)
	}
	if got := snap.Counter(`udp_scored_total{verdict="disposable"}`); got != 1 {
		t.Errorf(`udp_scored_total{verdict="disposable"} = %d, want 1`, got)
	}
	for _, verdict := range []string{"benign", "disposable"} {
		h := snap.Histograms[`udp_handle_latency_ns{verdict="`+verdict+`"}`]
		if h.Count != 1 {
			t.Errorf("%s latency histogram saw %d samples, want 1", verdict, h.Count)
		}
	}
	evs := mem.Snapshot(qlog.Filter{Verdict: "disposable"})
	if len(evs) != 1 || evs[0].Name != "evil.udp.test" {
		t.Fatalf("verdict-filtered events = %+v, want one evil.udp.test", evs)
	}
	if evs := mem.Snapshot(qlog.Filter{Verdict: "benign"}); len(evs) != 1 || evs[0].Name != "www.udp.test" {
		t.Fatalf("benign-filtered events = %+v, want one www.udp.test", evs)
	}
}

// TestServePacketPathZeroAllocWithScorer extends the packet-path alloc
// guard to the scoring branch: classifying every datagram must not move
// the serve loop off zero allocations.
func TestServePacketPathZeroAllocWithScorer(t *testing.T) {
	wire, err := dnsmsg.NewQuery(0x5151, "host.zone.example", dnsmsg.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	w := newProcessHarness(t, echoWireHandler{}, wire)
	w.scorer = suffixScorer{marker: []byte("zone")}
	b := &w.slots[0]
	w.process(b)
	if w.stats.scoredDisposable.Load() != 1 {
		t.Fatal("scorer did not run on the packet path")
	}
	if allocs := testing.AllocsPerRun(1000, func() { w.process(b) }); allocs != 0 {
		t.Errorf("scoring packet path allocates %.1f allocs/op, want 0", allocs)
	}
}
