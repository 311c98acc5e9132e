package livescore

import (
	"testing"
	"unicode/utf8"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/qlog"
)

// FuzzQuestionReaders holds the two front-door readers of a query's name to
// each other (FuzzUnpack holds dnsmsg.AppendSoleQuestion, the authority's
// in-place reader, to the decoder). Wherever the reader and ScoreWire both
// read a name, the scorer stages the same name — up to the scorer's
// ASCII-only case folding and its keeping of a label's own trailing dot, so
// the reader's name is always dnsname.Normalize of the staged one and equals
// it outright for an ASCII name with no trailing dot.
func FuzzQuestionReaders(f *testing.F) {
	query := func(labels ...string) []byte {
		wire := []byte{0xbe, 0xef, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0}
		for _, l := range labels {
			wire = append(append(wire, byte(len(l))), l...)
		}
		return append(wire, 0, 0, 1, 0, 1)
	}
	for _, seed := range [][]byte{
		query("www", "example", "com"),
		query("TOK2", "API", "Example", "COM"),
		query("\xc3\x89cole", "example"), // UTF-8 upper case
		query("\xff\xfeA", "x"),          // not UTF-8
		query("dot.", "x"),               // a label's own trailing dot
		query("a.b", "x"),                // a dot inside a label
		query(),                          // the root
		// A compressed question pointing back into the header.
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1},
		// One answer record besides the question: not a plain query.
		append(append([]byte{0, 1, 0x81, 0, 0, 1, 0, 1, 0, 0, 0, 0}, query("x")[12:]...),
			0xC0, 0x0C, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4),
		{0, 1, 0, 0},
	} {
		f.Add(seed)
	}
	eng := newPrimedEngine(f)
	s := &Scorer{eng: eng}
	f.Fuzz(func(t *testing.T, data []byte) {
		name, _, _, plain := dnsmsg.AppendSoleQuestion(nil, data)
		if !plain {
			return
		}
		s.lastLen = 0 // stage even a repeat of the last input
		if s.ScoreWire(data) == qlog.VerdictNone {
			return
		}
		var staged string
		s.ring.drain(func(b []byte) { staged = string(b) })
		if string(name) != dnsname.Normalize(staged) {
			t.Fatalf("reader name %q, scorer staged %q", name, staged)
		}
		if ascii(staged) && staged[len(staged)-1] != '.' && string(name) != staged {
			t.Fatalf("reader name %q, scorer staged the ASCII name %q", name, staged)
		}
	})
}

func ascii(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}
