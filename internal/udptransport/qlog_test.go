package udptransport

import (
	"testing"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/qlog"
)

// TestServerQueryLog runs real packets through a logging server and checks
// the sampled events carry the question as the front door's reader reads it
// — dig's EDNS query included, no name for a shape it rejects — and the
// rcode-derived outcome.
func TestServerQueryLog(t *testing.T) {
	l := qlog.New(qlog.Config{Sample: 1})
	mem := qlog.NewMemorySink(64)
	l.AddSink(mem)
	srv, err := Serve(testAuthority(t), "", WithServerQueryLog(l))
	if err != nil {
		t.Fatal(err)
	}

	query := func(names ...string) []byte {
		t.Helper()
		q := dnsmsg.NewQuery(9, names[0], dnsmsg.TypeA)
		for _, name := range names[1:] {
			q.Questions = append(q.Questions, dnsmsg.Question{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN})
		}
		wire, err := q.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	for _, wire := range [][]byte{
		query("www.udp.test"),
		query("missing.udp.test"),
		appendCookieOPT(query("WWW.Udp.test")),
		query("www.udp.test", "missing.udp.test"), // two questions: FORMERR
	} {
		if _, err := exchange("udp", srv.Addr(), wire); err != nil {
			t.Fatal(err)
		}
	}

	// Close joins the serve loop, so the recorder is quiesced and the
	// global flush may drain its ring.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	evs := mem.Snapshot(qlog.Filter{})
	if len(evs) != 4 {
		t.Fatalf("sampled %d events, want 4: %+v", len(evs), evs)
	}
	if evs[0].Name != "www.udp.test" || evs[0].Qtype != "A" || evs[0].Outcome != qlog.OutcomeNoError {
		t.Errorf("answered event = %+v, want www.udp.test/A noerror", evs[0])
	}
	if evs[1].Name != "missing.udp.test" || evs[1].Outcome != qlog.OutcomeNXDomain {
		t.Errorf("nxdomain event = %+v, want missing.udp.test nxdomain", evs[1])
	}
	if evs[2].Name != "www.udp.test" || evs[2].Qtype != "A" || evs[2].Outcome != qlog.OutcomeNoError {
		t.Errorf("EDNS event = %+v, want www.udp.test/A noerror", evs[2])
	}
	if evs[3].Name != "" || evs[3].Qtype != "" || evs[3].Outcome != qlog.OutcomeError {
		t.Errorf("two-question event = %+v, want no question and an error", evs[3])
	}
	for _, ev := range evs {
		if ev.LatencyNs == 0 {
			t.Errorf("event %d has no handler latency", ev.ID)
		}
	}
}

// TestServerQueryLogSampling checks the head sampler thins server-side
// events: with Sample 4, twelve queries yield exactly three.
func TestServerQueryLogSampling(t *testing.T) {
	l := qlog.New(qlog.Config{Sample: 4})
	mem := qlog.NewMemorySink(64)
	l.AddSink(mem)
	srv, err := Serve(testAuthority(t), "", WithServerQueryLog(l))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		q := dnsmsg.NewQuery(uint16(i), "www.udp.test", dnsmsg.TypeA)
		wire, err := q.Encode()
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
	if got := mem.Total(); got != 3 {
		t.Errorf("sampled %d of 12 queries at 1/4, want 3", got)
	}
}
