package qlog

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecordersAndReader exercises the full concurrency surface
// under the race detector: several worker goroutines emitting through
// their own recorders (draining into the shared sinks when their rings
// fill) while another goroutine hammers the /debug/qlog handler and the
// exemplar endpoint. The final Flush runs only after every writer has
// joined — the quiesce contract the resolver's day barrier provides.
func TestConcurrentRecordersAndReader(t *testing.T) {
	const (
		workers          = 4
		eventsPerWorker  = 5000
		readerIterations = 200
	)
	l := New(Config{Sample: 1})
	mem := NewMemorySink(256)
	ex := NewExemplarSink()
	l.AddSink(mem)
	l.AddSink(ex)
	l.SetDay(time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC))

	recs := make([]*Recorder, workers)
	for i := range recs {
		recs[i] = l.NewRecorder(i)
	}

	srv := httptest.NewServer(mem.Handler())
	defer srv.Close()
	exSrv := httptest.NewServer(ex.Handler())
	defer exSrv.Close()

	var writers sync.WaitGroup
	for i, r := range recs {
		writers.Add(1)
		go func(i int, r *Recorder) {
			defer writers.Done()
			for n := 0; n < eventsPerWorker; n++ {
				if r.Sample() {
					r.Emit(Event{
						Name:      fmt.Sprintf("w%d.race.test", i),
						Qtype:     "A",
						Outcome:   Outcome(1 + n%5),
						LatencyNs: uint64(n),
					})
				}
			}
		}(i, r)
	}

	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for n := 0; n < readerIterations; n++ {
			resp, err := srv.Client().Get(srv.URL + "/debug/qlog?qtype=A&n=50")
			if err != nil {
				t.Error(err)
				return
			}
			var body struct {
				Events []Event `json:"events"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Error(err)
				resp.Body.Close()
				return
			}
			resp.Body.Close()
			exResp, err := exSrv.Client().Get(exSrv.URL + "/debug/qlog/exemplars")
			if err != nil {
				t.Error(err)
				return
			}
			exResp.Body.Close()
		}
	}()

	writers.Wait()
	// All writers quiesced: the full flush is now legal.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	readers.Wait()

	if got, want := mem.Total(), uint64(workers*eventsPerWorker); got != want {
		t.Errorf("memory sink saw %d events, want %d", got, want)
	}
	// Every retained event carries a unique ID and the day stamp.
	seen := map[uint64]bool{}
	for _, ev := range mem.Snapshot(Filter{}) {
		if seen[ev.ID] {
			t.Errorf("duplicate event ID %d", ev.ID)
		}
		seen[ev.ID] = true
		if ev.Day != "2011-12-01" {
			t.Errorf("event %d missing day stamp: %q", ev.ID, ev.Day)
		}
	}
}
