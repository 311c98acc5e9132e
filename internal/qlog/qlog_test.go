package qlog

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/telemetry"
)

func TestOutcomeRoundTrip(t *testing.T) {
	for o := OutcomeUnknown; o <= OutcomeError; o++ {
		data, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		var back Outcome
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != o {
			t.Errorf("outcome %d round-tripped to %d via %s", o, back, data)
		}
	}
	var o Outcome
	if err := json.Unmarshal([]byte(`"bogus"`), &o); err != nil || o != OutcomeUnknown {
		t.Errorf("unknown label parsed to %v, %v; want OutcomeUnknown, nil", o, err)
	}
}

func TestEvictionCauseRoundTrip(t *testing.T) {
	for e := EvictNone; e <= EvictLiveDisposable; e++ {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var back EvictionCause
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != e {
			t.Errorf("cause %d round-tripped to %d via %s", e, back, data)
		}
	}
	// Severity ordering is load-bearing: resolver keeps the max cause.
	if !(EvictLiveDisposable > EvictLiveOther && EvictLiveOther > EvictExpired && EvictExpired > EvictNone) {
		t.Error("eviction causes are not ordered by severity")
	}
}

func TestNilSafety(t *testing.T) {
	var l *Log
	l.AddSink(NewMemorySink(4))
	l.SetDay(time.Now())
	if err := l.Flush(); err != nil {
		t.Errorf("nil Flush: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	r := l.NewRecorder(0)
	if r != nil {
		t.Fatal("nil log returned a recorder")
	}
	if r.Sample() {
		t.Error("nil recorder sampled")
	}
	r.Emit(Event{})
	r.Drain()
}

func TestSamplingCadence(t *testing.T) {
	l := New(Config{Sample: 4})
	r := l.NewRecorder(0)
	hits := 0
	for i := 0; i < 64; i++ {
		if r.Sample() {
			hits++
		}
	}
	if hits != 16 {
		t.Errorf("1-in-4 sampling over 64 ticks hit %d times, want 16", hits)
	}
}

func TestRecorderStampsAndDrains(t *testing.T) {
	l := New(Config{Sample: 1})
	mem := NewMemorySink(2 * DefaultRingSize)
	l.AddSink(mem)
	l.SetDay(time.Date(2011, 12, 1, 9, 30, 0, 0, time.UTC))
	r := l.NewRecorder(3)
	for i := 0; i < DefaultRingSize; i++ { // exactly one ring: drains on the last emit
		r.Emit(Event{Name: "a.example.com", Qtype: "A", Outcome: OutcomeHit})
	}
	evs := mem.Snapshot(Filter{})
	if len(evs) != DefaultRingSize {
		t.Fatalf("ring of %d drained %d events", DefaultRingSize, len(evs))
	}
	for i, ev := range evs {
		if ev.ID != uint64(i+1) {
			t.Errorf("event %d has ID %d, want %d", i, ev.ID, i+1)
		}
		if ev.Day != "2011-12-01" || ev.Window != 1 {
			t.Errorf("event %d stamped day=%q window=%d, want 2011-12-01/1", i, ev.Day, ev.Window)
		}
		if ev.Server != 3 {
			t.Errorf("event %d server = %d, want 3", i, ev.Server)
		}
	}
	// A second day advances the window stamp.
	l.SetDay(time.Date(2011, 12, 2, 0, 0, 0, 0, time.UTC))
	r.Emit(Event{Name: "b.example.com"})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	evs = mem.Snapshot(Filter{Zone: "b.example.com"})
	if len(evs) != 1 || evs[0].Day != "2011-12-02" || evs[0].Window != 2 {
		t.Errorf("day-2 event = %+v, want day 2011-12-02 window 2", evs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	for _, name := range []string{"events.jsonl", "events.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			f, err := jsonl.Create[Event](path)
			if err != nil {
				t.Fatal(err)
			}
			sink := JSONLSink{Writer: f}
			l := New(Config{Sample: 1})
			l.AddSink(sink)
			l.SetDay(time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC))
			r := l.NewRecorder(1)
			want := Event{
				Time:      time.Date(2011, 12, 1, 10, 0, 0, 0, time.UTC),
				Client:    42,
				Name:      "tok.avqs.mcafee.com",
				Qtype:     "A",
				Outcome:   OutcomeNoError,
				Evict:     EvictLiveDisposable,
				AuthRTTs:  2,
				AuthNs:    1500,
				LatencyNs: 2500,
			}
			r.Emit(want)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sink.Count(); got != 1 {
				t.Errorf("sink count = %d, want 1", got)
			}
			evs, err := jsonl.Open[Event](path)
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) != 1 {
				t.Fatalf("read %d events, want 1", len(evs))
			}
			got := evs[0]
			want.ID, want.Day, want.Window, want.Server = 1, "2011-12-01", 1, 1
			if !got.Time.Equal(want.Time) {
				t.Errorf("time round-tripped to %v, want %v", got.Time, want.Time)
			}
			got.Time, want.Time = time.Time{}, time.Time{}
			if got != want {
				t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestReadEventsPlainWriter(t *testing.T) {
	var buf bytes.Buffer
	sink := JSONLSink{Writer: jsonl.NewWriter[Event](&buf)}
	if err := sink.Consume([]Event{{ID: 1, Name: "x.test"}, {ID: 2, Name: "y.test"}}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := jsonl.Read[Event](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Name != "x.test" || evs[1].Name != "y.test" {
		t.Errorf("read back %+v", evs)
	}
}

func TestMemorySinkRingAndFilter(t *testing.T) {
	m := NewMemorySink(4)
	var batch []Event
	for i := 1; i <= 6; i++ {
		ev := Event{ID: uint64(i), Name: "host.zone-a.test", Qtype: "A", Outcome: OutcomeHit}
		if i%2 == 0 {
			ev.Name = "host.zone-b.test"
			ev.Outcome = OutcomeNXDomain
			ev.Qtype = "AAAA"
		}
		batch = append(batch, ev)
	}
	if err := m.Consume(batch); err != nil {
		t.Fatal(err)
	}
	if m.Total() != 6 {
		t.Errorf("total = %d, want 6", m.Total())
	}
	all := m.Snapshot(Filter{})
	if len(all) != 4 {
		t.Fatalf("ring of 4 retained %d", len(all))
	}
	// Oldest first: IDs 3..6 survive.
	for i, ev := range all {
		if ev.ID != uint64(i+3) {
			t.Errorf("slot %d has ID %d, want %d", i, ev.ID, i+3)
		}
	}
	if got := m.Snapshot(Filter{Zone: "zone-b.test"}); len(got) != 2 {
		t.Errorf("zone filter matched %d, want 2", len(got))
	}
	if got := m.Snapshot(Filter{Qtype: "aaaa"}); len(got) != 2 {
		t.Errorf("case-insensitive qtype filter matched %d, want 2", len(got))
	}
	if got := m.Snapshot(Filter{Outcome: "nxdomain"}); len(got) != 2 {
		t.Errorf("outcome filter matched %d, want 2", len(got))
	}
	if got := m.Snapshot(Filter{Zone: "a.test"}); len(got) != 0 {
		t.Errorf("partial-label suffix must not match, got %d", len(got))
	}
	if got := m.Snapshot(Filter{Limit: 1}); len(got) != 1 || got[0].ID != 6 {
		t.Errorf("limit 1 should keep the newest event, got %+v", got)
	}
}

func TestMemorySinkServerPopFilter(t *testing.T) {
	m := NewMemorySink(8)
	_ = m.Consume([]Event{
		{ID: 1, Name: "a.test", Server: 0, Pop: 0},
		{ID: 2, Name: "b.test", Server: 1, Pop: 0},
		{ID: 3, Name: "c.test", Server: 0, Pop: 2},
		{ID: 4, Name: "d.test", Server: 1, Pop: 2},
	})
	if got := m.Snapshot(Filter{Server: "0"}); len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 {
		t.Errorf("server=0 matched %+v", got)
	}
	if got := m.Snapshot(Filter{Pop: "2"}); len(got) != 2 || got[0].ID != 3 || got[1].ID != 4 {
		t.Errorf("pop=2 matched %+v", got)
	}
	if got := m.Snapshot(Filter{Server: "1", Pop: "2"}); len(got) != 1 || got[0].ID != 4 {
		t.Errorf("server=1&pop=2 matched %+v", got)
	}
	if got := m.Snapshot(Filter{Server: "bogus"}); len(got) != 0 {
		t.Errorf("non-numeric server matched %+v", got)
	}

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/qlog?pop=2&server=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Returned int     `json:"returned"`
		Events   []Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Returned != 1 || len(body.Events) != 1 || body.Events[0].ID != 4 {
		t.Errorf("pop+server response = %+v", body)
	}
}

func TestMemorySinkHandler(t *testing.T) {
	m := NewMemorySink(8)
	_ = m.Consume([]Event{
		{ID: 1, Name: "a.zone.test", Qtype: "A", Outcome: OutcomeHit},
		{ID: 2, Name: "b.other.test", Qtype: "A", Outcome: OutcomeNoError},
	})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/qlog?zone=zone.test&outcome=hit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Total    uint64  `json:"total"`
		Returned int     `json:"returned"`
		Events   []Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Total != 2 || body.Returned != 1 || len(body.Events) != 1 || body.Events[0].ID != 1 {
		t.Errorf("filtered response = %+v", body)
	}

	bad, err := srv.Client().Get(srv.URL + "/debug/qlog?n=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Errorf("bad n returned %d, want 400", bad.StatusCode)
	}
}

func TestExemplarSink(t *testing.T) {
	e := NewExemplarSink()
	_ = e.Consume([]Event{
		{ID: 1, Name: "fast.test", Outcome: OutcomeHit, LatencyNs: 100},
		{ID: 2, Name: "fast2.test", Outcome: OutcomeHit, LatencyNs: 120}, // same bucket: replaces
		{ID: 3, Name: "slow.test", Outcome: OutcomeNoError, LatencyNs: 1 << 20},
	})
	exs := e.Snapshot()
	if len(exs) != 2 {
		t.Fatalf("snapshot has %d buckets, want 2", len(exs))
	}
	first := exs[0]
	if first.Count != 2 || first.EventID != 2 || first.Name != "fast2.test" {
		t.Errorf("fast bucket = %+v, want count 2 keeping event 2", first)
	}
	if !(first.Lo <= 120 && 120 <= first.Hi) {
		t.Errorf("bucket bounds [%d, %d] do not cover latency 120", first.Lo, first.Hi)
	}
	if got := telemetry.HistogramBucketOf(120); got != telemetry.HistogramBucketOf(100) {
		t.Errorf("100 and 120 ns land in different buckets (%d vs %d)", telemetry.HistogramBucketOf(100), got)
	}

	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/qlog/exemplars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Buckets []Exemplar `json:"buckets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Buckets) != 2 {
		t.Errorf("handler returned %d buckets, want 2", len(body.Buckets))
	}
}

// TestEmitDoesNotAllocate pins the sampled path's cost: staging an event
// into the ring is a plain store. The run count stays below the ring size
// so no drain happens inside the measured window.
func TestEmitDoesNotAllocate(t *testing.T) {
	l := New(Config{Sample: 1})
	l.AddSink(NewMemorySink(16))
	l.SetDay(time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC))
	r := l.NewRecorder(0)
	ev := Event{Name: "host.alloc.test", Qtype: "A", Outcome: OutcomeHit, LatencyNs: 50}
	allocs := testing.AllocsPerRun(DefaultRingSize-2, func() {
		if r.Sample() {
			r.Emit(ev)
		}
	})
	if allocs != 0 {
		t.Errorf("Emit allocated %.1f times per op, want 0", allocs)
	}
}
