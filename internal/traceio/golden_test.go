package traceio

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/workload"
)

// The golden files were captured before the reader gained its canonical-line
// fast path: golden.jsonl is Writer output (a generated February day with 30 %
// disposable traffic, plus three names the writer must escape), foreign.jsonl
// is hand-written lines only encoding/json can read, and the .events files
// are what the json.Unmarshal-only reader decoded them to. -update re-captures
// all of it from the current code, which is only right when a change of the
// trace format is intended.
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.jsonl and *.events from the current generator, writer and reader")

// eventLine spells every field of a decoded event, the instant as Unix
// nanoseconds plus the zone offset so that "+02:00" and "Z" stamps differ.
func eventLine(e Event) string {
	_, offset := e.Time.Zone()
	return fmt.Sprintf("%d\t%d\t%d\t%s\t%s\t%t", e.Time.UnixNano(), offset, e.Client,
		strconv.Quote(e.Name), strconv.Quote(e.Type), e.Disposable)
}

// readEvents decodes data up to its end or its first bad line.
func readEvents(data []byte) ([]Event, error) {
	return drain(NewReader(bytes.NewReader(data)))
}

// drain reads r up to its end or its first bad line.
func drain(r *Reader) ([]Event, error) {
	var out []Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

func readAll(t *testing.T, data []byte) []Event {
	t.Helper()
	events, err := readEvents(data)
	if err != nil {
		t.Fatalf("event %d: %v", len(events)+1, err)
	}
	return events
}

func writeAll(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := &Writer{jsonl.NewWriter[Event](&buf)}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.jw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// generateGolden records a small day that exercises every name grammar.
func generateGolden(t *testing.T) []byte {
	t.Helper()
	reg := workload.NewRegistry(workload.RegistryConfig{Seed: 5, NonDisposableZones: 30, DisposableZones: 12, HostsPerZoneMax: 12})
	gen := workload.NewGenerator(reg, workload.GeneratorConfig{Seed: 6, Clients: 80, BaseEventsPerDay: 400})
	p := workload.FebruaryProfile(time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC))
	p.DisposableFrac = 0.30
	var events []Event
	day := gen.StartDay(p)
	for q, ok := day.Next(); ok; q, ok = day.Next() {
		events = append(events, FromQuery(q))
	}
	at := time.Date(2011, 2, 1, 23, 59, 59, 999_999_999, time.UTC)
	for i, name := range []string{"a<b.example.com", "x>y.example.com", "q&a.example.com"} {
		events = append(events, Event{Time: at, Client: uint32(i), Name: name, Type: "A"})
	}
	return writeAll(t, events)
}

func goldenFile(t *testing.T, name string, fresh func() []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden && fresh != nil {
		if err := os.WriteFile(path, fresh(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (re-capture with -update on a known-good reader)", err)
	}
	return data
}

func TestGoldenTraces(t *testing.T) {
	for _, tc := range []struct {
		trace   string
		fresh   func() []byte
		rewrite bool // the trace is Writer output: writing the events back reproduces it
	}{
		{"golden.jsonl", func() []byte { return generateGolden(t) }, true},
		{"foreign.jsonl", nil, false},
	} {
		t.Run(tc.trace, func(t *testing.T) {
			data := goldenFile(t, tc.trace, tc.fresh)
			events := readAll(t, data)
			var got strings.Builder
			for _, e := range events {
				got.WriteString(eventLine(e))
				got.WriteByte('\n')
			}
			want := goldenFile(t, strings.TrimSuffix(tc.trace, ".jsonl")+".events", func() []byte { return []byte(got.String()) })
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			if len(gl) != len(wl) {
				t.Fatalf("decoded %d events, want %d", len(gl)-1, len(wl)-1)
			}
			for i := range gl {
				if gl[i] != wl[i] {
					t.Fatalf("event %d decoded as\n  %s\nwant\n  %s", i+1, gl[i], wl[i])
				}
			}
			if tc.rewrite {
				if again := writeAll(t, events); !bytes.Equal(again, data) {
					t.Errorf("writing the decoded events back does not reproduce %s (%d bytes, want %d)", tc.trace, len(again), len(data))
				}
			}
		})
	}
}

// TestGoldenSpansGrammars keeps the golden trace honest about what it covers.
func TestGoldenSpansGrammars(t *testing.T) {
	events := readAll(t, goldenFile(t, "golden.jsonl", nil))
	if len(events) < 300 {
		t.Fatalf("golden trace holds %d events, want a few hundred", len(events))
	}
	want := map[string]bool{
		".device.trans.manage.esoft.com": false, ".avqs.mcafee.com": false, ".ipv6-exp.l.google.com": false,
		".zen.dnsbl.example-bl.org": false, ".metric.2o7-style.net": false,
	}
	aaaa, plain := 0, 0
	for _, e := range events {
		for suffix := range want {
			if strings.HasSuffix(e.Name, suffix) && e.Disposable {
				want[suffix] = true
			}
		}
		if e.Type == "AAAA" {
			aaaa++
		}
		if !e.Disposable {
			plain++
		}
	}
	for suffix, seen := range want {
		if !seen {
			t.Errorf("no disposable name under %s", suffix)
		}
	}
	if aaaa == 0 || plain == 0 {
		t.Errorf("AAAA events %d, non-disposable events %d: want both present", aaaa, plain)
	}
}
