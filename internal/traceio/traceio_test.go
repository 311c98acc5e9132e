package traceio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/resolver"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{jsonl.NewWriter[Event](&buf)}
	queries := []resolver.Query{
		{
			Time:     time.Date(2011, 12, 1, 8, 30, 0, 0, time.UTC),
			ClientID: 42,
			Name:     "www.example.com",
			Type:     dnsmsg.TypeA,
			Category: cache.CategoryOther,
		},
		{
			Time:     time.Date(2011, 12, 1, 8, 30, 1, 0, time.UTC),
			ClientID: 7,
			Name:     "tok123.avqs.mcafee.com",
			Type:     dnsmsg.TypeAAAA,
			Category: cache.CategoryDisposable,
		},
	}
	for _, q := range queries {
		if err := w.Write(FromQuery(q)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 2 {
		t.Errorf("Count = %d, want 2", w.Count())
	}
	if err := w.jw.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	for i, want := range queries {
		ev, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		got, err := ev.ToQuery()
		if err != nil {
			t.Fatalf("ToQuery %d: %v", i, err)
		}
		if !got.Time.Equal(want.Time) || got.ClientID != want.ClientID ||
			got.Name != want.Name || got.Type != want.Type || got.Category != want.Category {
			t.Errorf("query %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after trace end: %v, want io.EOF", err)
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	input := `{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":false}

{"ts":"2011-12-01T00:00:01Z","client":2,"name":"b.test","type":"A","disposable":true}
`
	r := NewReader(strings.NewReader(input))
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("events = %d, want 2", n)
	}
}

func TestReaderRejectsMalformed(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{name: "bad json", input: "{not json}\n"},
		{name: "missing name", input: `{"ts":"2011-12-01T00:00:00Z","client":1,"type":"A"}` + "\n"},
		{name: "missing type", input: `{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test"}` + "\n"},
		// Names the wire codec would refuse at their first cache miss.
		{name: "long label", input: `{"ts":"2011-12-01T00:00:00Z","client":1,"name":"` + strings.Repeat("a", 64) + `.test","type":"A","disposable":false}` + "\n"},
		{name: "empty label", input: `{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a..test","type":"A","disposable":false}` + "\n"},
		{name: "two trailing dots", input: `{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test..","type":"A","disposable":false}` + "\n"},
		{name: "long name", input: `{"ts":"2011-12-01T00:00:00Z","client":1,"name":"` + strings.Repeat("abcdefg.", 32) + `","type":"A","disposable":false}` + "\n"},
		{name: "long escaped label", input: `{"ts":"2011-12-01T00:00:00Z","client":1,"name":"\u0061` + strings.Repeat("a", 63) + `.test","type":"A","disposable":false}` + "\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(tt.input))
			if _, err := r.Next(); !errors.Is(err, ErrBadEvent) {
				t.Errorf("Next = %v, want ErrBadEvent", err)
			}
		})
	}
}

func TestGzipRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl.gz")
	w, closeW, err := CreatePath(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Event{
		Time:   time.Date(2011, 12, 1, 0, 0, 0, 123456789, time.UTC),
		Client: 9, Name: "tok.avqs.mcafee.com", Type: "A", Disposable: true,
	}
	if err := w.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := closeW(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("output does not start with gzip magic: %x", data[:2])
	}
	// The reader detects compression by sniffing, not by being told.
	r := NewReader(bytes.NewReader(data))
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(want.Time) || got.Name != want.Name || !got.Disposable {
		t.Errorf("event = %+v, want %+v", got, want)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after trace end: %v, want io.EOF", err)
	}
}

func TestCreateOpenPathGzipByExtension(t *testing.T) {
	for _, name := range []string{"trace.jsonl", "trace.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			w, closeW, err := CreatePath(path)
			if err != nil {
				t.Fatal(err)
			}
			q := resolver.Query{
				Time:     time.Date(2011, 12, 1, 8, 0, 0, 0, time.UTC),
				ClientID: 3, Name: "www.example.com", Type: dnsmsg.TypeA,
			}
			if err := w.Consume(q); err != nil {
				t.Fatal(err)
			}
			if err := closeW(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			gzipped := len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b
			if wantGz := strings.HasSuffix(name, ".gz"); gzipped != wantGz {
				t.Errorf("gzipped = %v, want %v", gzipped, wantGz)
			}
			r, closeR, err := OpenPath(path)
			if err != nil {
				t.Fatal(err)
			}
			defer closeR()
			ev, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if ev.Name != q.Name {
				t.Errorf("name = %q, want %q", ev.Name, q.Name)
			}
		})
	}
}

func TestReaderLineTooLong(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A"}` + "\n")
	buf.WriteString(`{"name":"` + strings.Repeat("x", maxLineBytes+16) + "\n")
	r := NewReader(&buf)
	if _, err := r.Next(); err != nil {
		t.Fatalf("first line: %v", err)
	}
	_, err := r.Next()
	if !errors.Is(err, ErrLineTooLong) {
		t.Errorf("oversized line: %v, want ErrLineTooLong", err)
	}
	if err != nil && !strings.Contains(err.Error(), "after line 1") {
		t.Errorf("error lacks line context: %v", err)
	}
}

func TestReaderCorruptGzip(t *testing.T) {
	// Valid magic, truncated stream: init must fail with a useful error.
	r := NewReader(bytes.NewReader([]byte{0x1f, 0x8b}))
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("corrupt gzip head: %v, want error", err)
	}
}

func TestToQueryRejectsUnknownType(t *testing.T) {
	e := Event{Name: "x.test", Type: "BOGUS"}
	if _, err := e.ToQuery(); !errors.Is(err, ErrBadEvent) {
		t.Errorf("ToQuery = %v, want ErrBadEvent", err)
	}
}

// canonicalTrace is Writer output covering both stamp shapes, both types the
// generator asks for and both labels.
func canonicalTrace(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := &Writer{jsonl.NewWriter[Event](&buf)}
	for i := 0; i < n; i++ {
		e := Event{
			Time:   time.Date(2011, 12, 1, 8, 30, i, 1000*i, time.UTC),
			Client: uint32(i * 7919), Name: "www.example.com", Type: "A",
		}
		if i%3 == 1 {
			e.Name, e.Type, e.Disposable = "0.0.0.0.1.0.0.4e.135jg5e1pd7s4735ftrqweufm5.avqs.mcafee.com", "AAAA", true
		}
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.jw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReaderNextAllocs: a line the Writer emitted costs its name and nothing
// else (the json.Unmarshal path costs six). AllocsPerRun rounds down, so
// the count is taken over a batch of events, not per call.
func TestReaderNextAllocs(t *testing.T) {
	const batch, runs = 1000, 5
	r := NewReader(bytes.NewReader(canonicalTrace(t, batch*(runs+1))))
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < batch; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > batch {
		t.Errorf("Reader.Next allocated %.0f times for %d canonical events, want <= one each", allocs, batch)
	}
}

func BenchmarkReaderNext(b *testing.B) {
	data := canonicalTrace(b, 10_000)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)) / 10_000)
	b.ResetTimer()
	var r *Reader
	for i := 0; i < b.N; i++ {
		if i%10_000 == 0 {
			r = NewReader(bytes.NewReader(data))
		}
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
