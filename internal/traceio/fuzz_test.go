package traceio

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dnsnoise/internal/dnsmsg"
)

// referenceDecode is the reader's specification for one line: encoding/json
// into a fresh Event, a name and a type present, and a name of 1–63-octet
// labels, at most 253 octets, after at most one trailing dot (or the root).
func referenceDecode(line []byte) (Event, error) {
	var e Event
	if err := json.Unmarshal(line, &e); err != nil {
		return Event{}, err
	}
	if e.Name == "" || e.Type == "" {
		return Event{}, errors.New("missing name or type")
	}
	name := strings.TrimSuffix(e.Name, ".")
	if len(name) > 253 {
		return Event{}, errors.New("name too long")
	}
	for _, label := range strings.Split(name, ".") {
		if (len(label) == 0 && name != "") || len(label) > 63 {
			return Event{}, errors.New("bad label")
		}
	}
	return e, nil
}

// encodes reports whether the wire codec takes name as a question: the
// failure a bad name used to cause thousands of queries into a replay.
func encodes(name string) bool {
	var b dnsmsg.Builder
	b.Begin(nil, dnsmsg.Header{})
	return b.Question(name, dnsmsg.TypeA, dnsmsg.ClassIN) == nil
}

// referenceRead applies referenceDecode to data the way the Reader's line
// scanner cuts it: at "\n", one trailing "\r" dropped, empty lines skipped,
// stopping at the first bad line.
func referenceRead(data []byte) ([]Event, error) {
	var out []Event
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		e, err := referenceDecode(line)
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}

// hostileLines are the hand-written lines FuzzReaderLine starts from besides
// the golden and foreign traces. As f.Add seeds they also run on every plain
// `go test`.
var hostileLines = []string{
	// Numbers JSON or uint32 refuse, and ones only JSON spells.
	`{"ts":"2011-12-01T00:00:00Z","client":01,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":4294967296,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":4294967295,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":99999999999,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":-1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":-0,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1e3,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1.0,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":"7","name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":,"name":"a.test","type":"A","disposable":false}`,
	// Stamps: offsets, a leap second, lower-case separators, fractions,
	// out-of-range fields, an escaped and a null stamp.
	`{"ts":"2011-12-01T02:00:00+02:00","client":1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T02:00:00+00:00","client":1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T23:59:60Z","client":1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01t00:00:00z","client":1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00.Z","client":1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00,5Z","client":1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T24:00:00Z","client":1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00+24:00","client":1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-02-30T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00\u005a","client":1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":null,"client":1,"name":"a.test","type":"A","disposable":false}`,
	`{"ts":"","client":1,"name":"a.test","type":"A","disposable":false}`,
	// Labels: null, a string, capitals, trailing bytes.
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":null}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":"true"}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":True}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":true}}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":true} x`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":true`,
	// Types: lower case, unknown, numeric, empty, over-long.
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"aaaa","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"BOGUS","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"TYPE99","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":1,"disposable":false}`,
	// Names: escapes, raw control and non-ASCII bytes, an unterminated
	// string, and everything the wire codec refuses.
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"A.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a\\.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a\"b.test","type":"A","disposable":false}`,
	"{\"ts\":\"2011-12-01T00:00:00Z\",\"client\":1,\"name\":\"a\tb.test\",\"type\":\"A\",\"disposable\":false}",
	"{\"ts\":\"2011-12-01T00:00:00Z\",\"client\":1,\"name\":\"a\x7fb.test\",\"type\":\"A\",\"disposable\":false}",
	"{\"ts\":\"2011-12-01T00:00:00Z\",\"client\":1,\"name\":\"b\xc3\xbccher.test\",\"type\":\"A\",\"disposable\":false}",
	"{\"ts\":\"2011-12-01T00:00:00Z\",\"client\":1,\"name\":\"b\xffcher.test\",\"type\":\"A\",\"disposable\":false}",
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test,"type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":".","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"..","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test.","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test..","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a..test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":".a.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"` + strings.Repeat("a", 63) + `.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"` + strings.Repeat("a", 64) + `.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"` + strings.Repeat("abcdefg.", 31) + `abcde.","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"` + strings.Repeat("abcdefg.", 31) + `abcdef","type":"A","disposable":false}`,
	// Shape: key order and case, duplicates, whitespace, not an object.
	`{"client":1,"ts":"2011-12-01T00:00:00Z","name":"a.test","type":"A","disposable":false}`,
	`{"TS":"2011-12-01T00:00:00Z","CLIENT":1,"Name":"a.test","tYPE":"A","Disposable":true}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","name":"b.test","type":"A","disposable":false}`,
	`{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":false,"ts":"2012-01-01T00:00:00Z"}`,
	` {"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":false} `,
	`{"ts": "2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":false}`,
	"{\"ts\":\"2011-12-01T00:00:00Z\",\"client\":1,\"name\":\"a.test\",\"type\":\"A\",\"disposable\":false}\r",
	"{\"ts\":\"2011-12-01T00:00:00Z\",\"client\":1,\"name\":\"a.test\",\"type\":\"A\",\"disposable\":false}\r\r",
	"\r\n\n{\"ts\":\"2011-12-01T00:00:00Z\",\"client\":1,\"name\":\"a.test\",\"type\":\"A\",\"disposable\":true}\n{not json}\n",
	`[{"ts":"2011-12-01T00:00:00Z","client":1,"name":"a.test","type":"A","disposable":false}]`,
	`null`, `{}`, `{"ts":"`, `{"ts":"2011-12-01T00:00:00Z","client":`, "\x1f\x8b",
}

// FuzzReaderLine holds the canonical-line decoder inside encoding/json: for
// arbitrary bytes the Reader yields the events the reference yields —
// reflect.DeepEqual, so the stamp's location too — fails where the reference
// fails, and never panics.
func FuzzReaderLine(f *testing.F) {
	for _, name := range []string{"golden.jsonl", "foreign.jsonl"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.Split(data, []byte("\n"))
		for i, line := range lines {
			// All of the short foreign trace; of the golden one a stride
			// and the three escaped names at its end.
			if name == "foreign.jsonl" || i%8 == 0 || i >= len(lines)-5 {
				f.Add(line)
			}
		}
	}
	for _, line := range hostileLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceRead(data)
		got, gotErr := readEvents(data)
		if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
			return // sniffed as gzip: the lines are not the input's
		}
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("reader error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr != nil && !errors.Is(gotErr, ErrBadEvent) {
			t.Fatalf("reader error %v does not wrap ErrBadEvent", gotErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reader decoded\n  %+v\nreference\n  %+v", got, want)
		}
		for _, e := range got {
			if !encodes(e.Name) {
				t.Fatalf("reader let through %q, which the wire codec cannot encode", e.Name)
			}
		}
	})
}
