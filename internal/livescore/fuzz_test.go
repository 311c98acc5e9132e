package livescore

import (
	"strings"
	"testing"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/qlog"
)

// FuzzQuestionReaders holds the scorer to the front door's one question
// reader, dnsmsg.AppendSoleQuestion (FuzzUnpack holds the reader to the
// decoder): ScoreWire gives no verdict exactly when the reader rejects the
// datagram, reads the root, or reads a name of more than maxLabels
// labels or longer than a ring slot; otherwise it stages the reader's name.
func FuzzQuestionReaders(f *testing.F) {
	query := func(labels ...string) []byte {
		wire := []byte{0xbe, 0xef, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0}
		for _, l := range labels {
			wire = append(append(wire, byte(len(l))), l...)
		}
		return append(wire, 0, 0, 1, 0, 1)
	}
	dots := strings.Repeat(".", 63)
	for _, seed := range [][]byte{
		query("www", "example", "com"),
		query("TOK2", "API", "Example", "COM"),
		query("\xc3\x89cole", "example"),     // UTF-8 upper case
		query("\xff\xfeA", "x"),              // not UTF-8
		query("dot.", "x"),                   // a label's own trailing dot
		query("a.b", "x"),                    // a dot inside a label
		query(),                              // the root
		query(dots, dots, dots),              // labels of dots: past maxLabels
		query(dots, dots[1:], "x"),           // exactly maxLabels labels
		withCookieOPT(query("x", "example")), // dig's query
		// A compressed question pointing back into the header.
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1},
		// One answer record besides the question: not a shape the reader takes.
		append(append([]byte{0, 1, 0x81, 0, 0, 1, 0, 1, 0, 0, 0, 0}, query("x")[12:]...),
			0xC0, 0x0C, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4),
		{0, 1, 0, 0},
	} {
		f.Add(seed)
	}
	eng := newPrimedEngine(f)
	s := &Scorer{eng: eng}
	f.Fuzz(func(t *testing.T, data []byte) {
		name, _, _, ok := dnsmsg.AppendSoleQuestion(nil, data)
		none := !ok || len(name) == 0 || len(name) > maxNameLen ||
			dnsname.CountLabels(string(name)) > maxLabels
		s.lastLen = 0 // stage even a repeat of the last input
		if got := s.ScoreWire(data); (got == qlog.VerdictNone) != none {
			t.Fatalf("ScoreWire = %q; the reader read %q (ok %v)", got, name, ok)
		}
		var staged []string
		s.ring.drain(func(b []byte) { staged = append(staged, string(b)) })
		if none && len(staged) != 0 || !none && (len(staged) != 1 || staged[0] != string(name)) {
			t.Fatalf("reader name %q (no verdict: %v), scorer staged %q", name, none, staged)
		}
	})
}
