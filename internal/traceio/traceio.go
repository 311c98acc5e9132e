// Package traceio serializes query traces as JSON Lines, so generated
// workloads can be stored, inspected, and replayed by the CLI tools.
// The file format, gzip rule included, is internal/jsonl's.
package traceio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/resolver"
)

// ErrBadEvent reports a malformed trace line.
var ErrBadEvent = errors.New("traceio: malformed event")

// ErrLineTooLong reports a trace line exceeding maxLineBytes.
var ErrLineTooLong = errors.New("traceio: line exceeds 1 MB cap")

// maxLineBytes caps a single trace line; a well-formed event is a few
// hundred bytes, so anything past this is a corrupt or hostile input.
const maxLineBytes = 1 << 20

// Event is one serialized query.
type Event struct {
	// Time is RFC 3339 with sub-second precision.
	Time time.Time `json:"ts"`
	// Client is the anonymized client ID.
	Client uint32 `json:"client"`
	// Name is the queried domain name.
	Name string `json:"name"`
	// Type is the query type mnemonic ("A", "AAAA", ...).
	Type string `json:"type"`
	// Disposable carries the generator's ground-truth label.
	Disposable bool `json:"disposable"`
}

// FromQuery converts a resolver query to its serialized form.
func FromQuery(q resolver.Query) Event {
	return Event{
		Time:       q.Time,
		Client:     q.ClientID,
		Name:       q.Name,
		Type:       q.Type.String(),
		Disposable: q.Category == cache.CategoryDisposable,
	}
}

// ToQuery converts a deserialized event back to a resolver query.
func (e Event) ToQuery() (resolver.Query, error) {
	typ, err := dnsmsg.ParseType(e.Type)
	if err != nil {
		return resolver.Query{}, fmt.Errorf("%w: %v", ErrBadEvent, err)
	}
	cat := cache.CategoryOther
	if e.Disposable {
		cat = cache.CategoryDisposable
	}
	return resolver.Query{
		Time:     e.Time,
		ClientID: e.Client,
		Name:     e.Name,
		Type:     typ,
		Category: cat,
	}, nil
}

// Writer emits events as JSON lines. CreatePath makes one.
type Writer struct{ jw *jsonl.Writer[Event] }

// Write appends one event.
func (w *Writer) Write(e Event) error {
	return w.jw.Write(&e)
}

// Consume appends one query, satisfying the ingest pipeline's query-sink
// contract: a trace writer is an output module for the raw query stream.
func (w *Writer) Consume(q resolver.Query) error {
	return w.Write(FromQuery(q))
}

// Count returns the number of events written.
func (w *Writer) Count() int { return int(w.jw.Count()) }

// Reader parses JSON-line events. The input is sniffed for the gzip magic
// bytes on the first read and decompressed transparently. The format is
// what encoding/json decodes into an Event; a line of exactly the shape
// Writer emits is decoded in place instead (see decodeCanonical), to the
// same Event. Either way the name must be one the wire codec can encode.
type Reader struct {
	raw     io.Reader
	sc      *bufio.Scanner
	line    int
	initErr error
}

// NewReader wraps r. Compression is detected lazily on the first Next call.
func NewReader(r io.Reader) *Reader {
	return &Reader{raw: r}
}

// init sniffs the stream head for the gzip magic and builds the line
// scanner over the (possibly decompressed) byte stream.
func (r *Reader) init() error {
	if r.sc != nil || r.initErr != nil {
		return r.initErr
	}
	src, err := jsonl.Sniff(r.raw)
	if err != nil {
		r.initErr = fmt.Errorf("traceio: open gzip stream: %w", err)
		return r.initErr
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 1<<16), maxLineBytes)
	r.sc = sc
	return nil
}

// Next returns the next event, or io.EOF when the trace is exhausted.
func (r *Reader) Next() (Event, error) {
	if err := r.init(); err != nil {
		return Event{}, err
	}
	for r.sc.Scan() {
		r.line++
		raw := r.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		e, ok := decodeCanonical(raw)
		if !ok {
			var general Event // declared here: only this path's event escapes to the heap
			if err := json.Unmarshal(raw, &general); err != nil {
				return Event{}, fmt.Errorf("%w: line %d: %v", ErrBadEvent, r.line, err)
			}
			e = general
		}
		if e.Name == "" || e.Type == "" {
			return Event{}, fmt.Errorf("%w: line %d: missing name or type", ErrBadEvent, r.line)
		}
		if err := validateName(e.Name); err != nil {
			return Event{}, fmt.Errorf("%w: line %d: name %q: %v", ErrBadEvent, r.line, e.Name, err)
		}
		return e, nil
	}
	if err := r.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return Event{}, fmt.Errorf("%w (after line %d)", ErrLineTooLong, r.line)
		}
		return Event{}, fmt.Errorf("traceio: scan: %w", err)
	}
	return Event{}, io.EOF
}

// validateName accepts the names the wire codec can put in a question
// (dnsmsg.Builder.Question): dnsname.Validate's structural rules after at
// most one trailing dot, and the root. A replay that let any other name
// through would fail at that name's first cache miss, far from the line.
func validateName(name string) error {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return nil
	}
	return dnsname.Validate(name)
}

// decodeCanonical decodes line if it is, byte for byte, of the shape Writer
// emits:
//
//	{"ts":"…","client":N,"name":"…","type":"…","disposable":true|false}
//
// with strings whose every byte stands for itself, an RFC 3339 stamp, a
// plain decimal uint32 and a known type mnemonic. For such a line the event
// equals what json.Unmarshal decodes (FuzzReaderLine holds the two
// together) at one allocation, the name, instead of six. On any deviation
// — key order or case, escapes, whitespace, non-ASCII, an unknown type —
// it reports false and the caller hands the untouched line to
// encoding/json, which remains the specification of the format and the
// only source of error text.
func decodeCanonical(line []byte) (e Event, ok bool) {
	ts, rest, ok := plainString(line, `{"ts":"`)
	if !ok || e.Time.UnmarshalText(ts) != nil {
		return Event{}, false
	}
	if rest, ok = cutLiteral(rest, `,"client":`); !ok {
		return Event{}, false
	}
	// JSON spells a number without leading zeros; ten digits can overflow.
	digits := 0
	var client uint64
	for digits < len(rest) && digits < 10 && '0' <= rest[digits] && rest[digits] <= '9' {
		client = client*10 + uint64(rest[digits]-'0')
		digits++
	}
	if digits == 0 || (digits > 1 && rest[0] == '0') || client > math.MaxUint32 {
		return Event{}, false
	}
	e.Client = uint32(client)
	name, rest, ok := plainString(rest[digits:], `,"name":"`)
	if !ok {
		return Event{}, false
	}
	mnemonic, rest, ok := plainString(rest, `,"type":"`)
	if !ok || len(mnemonic) > 8 {
		return Event{}, false
	}
	// The length bound keeps the conversion on the stack, and going through
	// the parsed type makes Event.Type one of String's constants.
	typ, err := dnsmsg.ParseType(string(mnemonic))
	if err != nil {
		return Event{}, false
	}
	e.Type = typ.String()
	switch string(rest) {
	case `,"disposable":true}`:
		e.Disposable = true
	case `,"disposable":false}`:
	default:
		return Event{}, false
	}
	e.Name = string(name)
	return e, true
}

// plainString consumes the literal lit and then a JSON string body up to
// its closing quote, provided the body is printable ASCII without a
// backslash, so that its bytes are its value.
func plainString(b []byte, lit string) (val, rest []byte, ok bool) {
	if b, ok = cutLiteral(b, lit); !ok {
		return nil, nil, false
	}
	for i, c := range b {
		switch {
		case c == '"':
			return b[:i], b[i+1:], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, nil, false
		}
	}
	return nil, nil, false
}

func cutLiteral(b []byte, lit string) ([]byte, bool) {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return nil, false
	}
	return b[len(lit):], true
}

// OpenPath opens a trace file for reading — "-" means stdin — sniffing
// gzip transparently. The returned close function releases the file handle.
func OpenPath(path string) (*Reader, func() error, error) {
	if path == "-" {
		return NewReader(os.Stdin), func() error { return nil }, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return NewReader(f), f.Close, nil
}

// CreatePath creates a trace file for writing — "-" means stdout — gzip
// compressing when the name ends in ".gz". The returned close function
// flushes the writer, ends any gzip stream and closes the file.
func CreatePath(path string) (*Writer, func() error, error) {
	if path == "-" {
		jw := jsonl.NewWriter[Event](os.Stdout)
		return &Writer{jw}, jw.Close, nil
	}
	jw, err := jsonl.Create[Event](path)
	if err != nil {
		return nil, nil, err
	}
	return &Writer{jw}, jw.Close, nil
}
