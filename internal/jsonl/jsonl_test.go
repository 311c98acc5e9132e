package jsonl_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/traceio"
)

var at = time.Date(2011, 12, 1, 8, 30, 15, 123456789, time.UTC)

// roundTrip writes recs to dir/name.jsonl and dir/name.jsonl.gz, reads
// both back, and returns the plain file's bytes and the gzip file's
// decompressed bytes.
func roundTrip[T any](t *testing.T, dir, name string, recs []T) (plain, unzipped []byte) {
	t.Helper()
	for _, ext := range []string{".jsonl", ".jsonl.gz"} {
		path := filepath.Join(dir, name+ext)
		w, err := jsonl.Create[T](path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got := w.Count(); got != uint64(len(recs)) {
			t.Errorf("%s: Count = %d, want %d", ext, got, len(recs))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := jsonl.Open[T](path)
		if err != nil {
			t.Fatalf("%s: %v", ext, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Errorf("%s: read back\n%+v\nwant\n%+v", ext, got, recs)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if ext == ".jsonl" {
			plain = data
			continue
		}
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s is not gzip: %v", ext, err)
		}
		if unzipped, err = io.ReadAll(zr); err != nil {
			t.Fatal(err)
		}
	}
	return plain, unzipped
}

// TestRoundTrip writes each record stream plain and compressed: both read
// back to the records, and the compressed file holds the plain bytes.
func TestRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		run  func(t *testing.T, dir string) ([]byte, []byte)
	}{
		{"trace", func(t *testing.T, dir string) ([]byte, []byte) {
			return roundTrip(t, dir, "trace", []traceio.Event{
				{Time: at, Client: 9, Name: "tok.avqs.mcafee.com", Type: "A", Disposable: true},
				{Time: at.Add(time.Second), Client: 10, Name: "www.example.com", Type: "AAAA"},
			})
		}},
		{"fpdns", func(t *testing.T, dir string) ([]byte, []byte) {
			return roundTrip(t, dir, "fpdns", []pdns.FpRecord{
				{Time: at.Truncate(time.Second), Client: 42, QName: "www.example.com",
					Name: "www.example.com", Type: "A", TTL: 300, RData: "192.0.2.1"},
			})
		}},
		{"qlog", func(t *testing.T, dir string) ([]byte, []byte) {
			return roundTrip(t, dir, "qlog", []qlog.Event{
				{ID: 1, Time: at, Day: "2011-12-01", Window: 1, Server: 3, Name: "x.test",
					Qtype: "A", Outcome: qlog.OutcomeHit, CacheHit: true, LatencyNs: 700},
				{ID: 2, Time: at, Server: 0, Name: "y.test", Qtype: "MX", Outcome: qlog.OutcomeNXDomain,
					Evict: qlog.EvictExpired, AuthRTTs: 1, AuthNs: 9000, LatencyNs: 12000,
					Verdict: qlog.VerdictBenign},
			})
		}},
		{"explain", func(t *testing.T, dir string) ([]byte, []byte) {
			return roundTrip(t, dir, "explain", []core.ExplainRecord{{
				Zone: "avqs.mcafee.com", Depth: 9, GroupSize: 40, Labels: 38, MeanLabelLen: 12.5,
				Features:   map[string]float64{"chr_mean": 0.01, "ttl_min": 1},
				Confidence: 0.97, Theta: 0.9, Disposable: true,
				Path:        []mlearn.PathStep{{Feature: 2, Threshold: 0.5, Value: 0.01, Right: false}},
				SampleNames: []string{"0.0.0.0.1.0.0.4e.x.avqs.mcafee.com"},
				Window:      4, Day: "2011-12-01", Hysteresis: "current=benign streak=1/2",
			}})
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			plain, unzipped := tt.run(t, t.TempDir())
			if len(plain) == 0 || !bytes.Equal(plain, unzipped) {
				t.Errorf("gzip file decompresses to\n%s\nplain file holds\n%s", unzipped, plain)
			}
		})
	}
}

// TestGzipFlushKeepsStreamReadable: after Flush and before Close, a
// compressed file already yields every record written, though the stream
// has no end yet.
func TestGzipFlushKeepsStreamReadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl.gz")
	w, err := jsonl.Create[qlog.Event](path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 3; i++ {
		if err := w.Write(&qlog.Event{ID: uint64(i), Name: "x.test"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := jsonl.Open[qlog.Event](path)
	if len(evs) != 3 || evs[2].ID != 3 {
		t.Fatalf("read %+v before Close, want the 3 flushed events", evs)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("open stream read ended with %v, want io.ErrUnexpectedEOF", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if evs, err = jsonl.Open[qlog.Event](path); err != nil || len(evs) != 3 {
		t.Errorf("after Close: %d events, %v", len(evs), err)
	}
}

// failingWriter fails every write, each time with a new error.
type failingWriter struct{ calls int }

func (f *failingWriter) Write([]byte) (int, error) {
	f.calls++
	if f.calls == 1 {
		return 0, errFirst
	}
	return 0, errors.New("a later write error")
}

var errFirst = errors.New("first write error")

func TestFirstErrorIsSticky(t *testing.T) {
	fw := &failingWriter{}
	w := jsonl.NewWriter[traceio.Event](fw)
	if err := w.Write(&traceio.Event{Name: "a.test", Type: "A"}); err != nil {
		t.Fatalf("buffered write failed early: %v", err)
	}
	if err := w.Flush(); !errors.Is(err, errFirst) {
		t.Fatalf("Flush = %v, want the first error", err)
	}
	if err := w.Write(&traceio.Event{Name: "b.test", Type: "A"}); !errors.Is(err, errFirst) {
		t.Errorf("Write after a failure = %v, want the first error", err)
	}
	if err := w.Close(); !errors.Is(err, errFirst) {
		t.Errorf("Close = %v, want the first error", err)
	}
	if w.Count() != 1 {
		t.Errorf("Count = %d, want 1", w.Count())
	}
}

// closeRecorder is a buffer that notes a Close call.
type closeRecorder struct {
	bytes.Buffer
	closed bool
}

func (c *closeRecorder) Close() error {
	c.closed = true
	return nil
}

func TestNewWriterLeavesCallerWriterOpen(t *testing.T) {
	var c closeRecorder
	w := jsonl.NewWriter[pdns.FpRecord](&c)
	if err := w.Write(&pdns.FpRecord{Name: "a.test"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if c.closed {
		t.Error("Close closed the caller's writer")
	}
	if c.Len() == 0 {
		t.Error("Close did not flush into the caller's writer")
	}
}

// TestQlogEventGoldenLine pins one query-log event's line: every field
// set, names that encoding/json escapes, and the text forms of the enums.
func TestQlogEventGoldenLine(t *testing.T) {
	const golden = `{"id":42,"ts":"2011-12-01T08:30:15.123456789Z","day":"2011-12-01","window":3,"server":2,"pop":1,"client":77,"name":"0.1.a\u003cb\u003e\u0026.example.com","qtype":"AAAA","outcome":"nxdomain","cache_hit":true,"evict":"live-disposable","auth_rtts":2,"auth_ns":1500,"latency_ns":98765,"verdict":"disposable"}` + "\n"
	var buf bytes.Buffer
	w := jsonl.NewWriter[qlog.Event](&buf)
	ev := qlog.Event{ID: 42, Time: at, Day: "2011-12-01", Window: 3,
		Server: 2, Pop: 1, Client: 77, Name: "0.1.a<b>&.example.com", Qtype: "AAAA",
		Outcome: qlog.OutcomeNXDomain, CacheHit: true, Evict: qlog.EvictLiveDisposable,
		AuthRTTs: 2, AuthNs: 1500, LatencyNs: 98765, Verdict: qlog.VerdictDisposable}
	if err := w.Write(&ev); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != golden {
		t.Errorf("line\n%s\nwant\n%s", got, golden)
	}
}
