package authority

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
)

// Zone-file parsing errors.
var (
	ErrZoneSyntax = errors.New("authority: zone file syntax error")
	ErrNoOrigin   = errors.New("authority: zone file has no origin")
)

// ParseZoneFile reads an RFC 1035 master-file subset and builds a Zone.
//
// Supported constructs:
//
//	$ORIGIN example.com.        ; sets the origin (required unless given)
//	$TTL 3600                   ; default TTL
//	@          IN A    192.0.2.1
//	www  300   IN A    192.0.2.2
//	mail       IN AAAA 2001:db8::1
//	alias      IN CNAME www     ; relative names expand under the origin
//	*.cdn      IN A    192.0.2.3
//	txt        IN TXT  "free text"
//	; comments run to end of line
//
// Class is optional and must be IN when present; TTL is optional and falls
// back to $TTL (or 3600). Owner names may be omitted to repeat the previous
// owner. A backslash takes the next byte literally, so \" puts a quote in a
// quoted string. Multi-line parentheses and $INCLUDE are not supported. The
// defaultOrigin argument seeds the origin before any $ORIGIN directive;
// pass "" to require one in the file.
//
// Every record is checked as it is read: a name must be printable ASCII
// holding none of the bytes the syntax gives a meaning (space, `"$();@\`),
// so it is written bare, and rdata must be one the wire encoder accepts. A
// zone that parses therefore answers every query for its records, and
// written back out in this syntax it parses to the same zone.
func ParseZoneFile(r io.Reader, defaultOrigin string, opts ...ZoneOption) (*Zone, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)

	origin := dnsname.Normalize(defaultOrigin)
	defaultTTL := uint32(3600)
	lastOwner := ""
	var pending []dnsmsg.RR

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := stripComment(sc.Text())
		if strings.TrimSpace(line) == "" {
			continue
		}
		// Directives.
		if strings.HasPrefix(line, "$") {
			fields := strings.Fields(line)
			switch strings.ToUpper(fields[0]) {
			case "$ORIGIN":
				if len(fields) != 2 {
					return nil, fmt.Errorf("%w: line %d: $ORIGIN wants one argument", ErrZoneSyntax, lineNo)
				}
				origin = dnsname.Normalize(fields[1])
				if err := checkName(origin); err != nil {
					return nil, fmt.Errorf("line %d: %w", lineNo, err)
				}
			case "$TTL":
				if len(fields) != 2 {
					return nil, fmt.Errorf("%w: line %d: $TTL wants one argument", ErrZoneSyntax, lineNo)
				}
				ttl, err := strconv.ParseUint(fields[1], 10, 32)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: bad $TTL %q", ErrZoneSyntax, lineNo, fields[1])
				}
				defaultTTL = uint32(ttl)
			default:
				return nil, fmt.Errorf("%w: line %d: unsupported directive %s", ErrZoneSyntax, lineNo, fields[0])
			}
			continue
		}
		if origin == "" {
			return nil, fmt.Errorf("%w (line %d reached without $ORIGIN)", ErrNoOrigin, lineNo)
		}
		rr, owner, err := parseRecordLine(line, origin, defaultTTL, lastOwner)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		lastOwner = owner
		pending = append(pending, rr)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("authority: read zone file: %w", err)
	}
	if origin == "" {
		return nil, ErrNoOrigin
	}
	z, err := NewZone(origin, opts...)
	if err != nil {
		return nil, err
	}
	for _, rr := range pending {
		if rr.Type == dnsmsg.TypeSOA && rr.Name == origin {
			// The zone synthesizes its own SOA; a master-file SOA replaces
			// only the serial/timers presentation, so accept and skip it.
			continue
		}
		if err := z.Add(rr); err != nil {
			return nil, err
		}
	}
	return z, nil
}

// parseRecordLine parses one "owner [ttl] [class] type rdata" line. A line
// starting with whitespace repeats the previous owner.
func parseRecordLine(line, origin string, defaultTTL uint32, lastOwner string) (dnsmsg.RR, string, error) {
	var rr dnsmsg.RR
	startsWithSpace := line[0] == ' ' || line[0] == '\t'
	fields := splitRecordFields(line)
	if len(fields) < 2 {
		return rr, "", fmt.Errorf("%w: too few fields", ErrZoneSyntax)
	}
	var owner string
	if startsWithSpace {
		if lastOwner == "" {
			return rr, "", fmt.Errorf("%w: blank owner with no previous record", ErrZoneSyntax)
		}
		owner = lastOwner
	} else {
		var err error
		if owner, err = expandName(fields[0], origin); err != nil {
			return rr, "", err
		}
		fields = fields[1:]
	}
	ttl := defaultTTL
	// Optional TTL.
	if len(fields) > 0 {
		if v, err := strconv.ParseUint(fields[0], 10, 32); err == nil {
			ttl = uint32(v)
			fields = fields[1:]
		}
	}
	// Optional class.
	if len(fields) > 0 && strings.EqualFold(fields[0], "IN") {
		fields = fields[1:]
	}
	if len(fields) < 2 {
		return rr, "", fmt.Errorf("%w: missing type or rdata", ErrZoneSyntax)
	}
	typ, err := dnsmsg.ParseType(strings.ToUpper(fields[0]))
	if err != nil {
		return rr, "", fmt.Errorf("%w: %v", ErrZoneSyntax, err)
	}
	text := strings.Join(fields[1:], " ")
	switch typ {
	case dnsmsg.TypeCNAME, dnsmsg.TypeNS:
		if text, err = expandName(text, origin); err != nil {
			return rr, "", err
		}
	case dnsmsg.TypeSOA:
		soaFields := strings.Fields(text)
		if len(soaFields) != 7 {
			return rr, "", fmt.Errorf("%w: SOA wants 7 rdata fields", ErrZoneSyntax)
		}
		for i := range soaFields[:2] {
			if soaFields[i], err = expandName(soaFields[i], origin); err != nil {
				return rr, "", err
			}
		}
		text = strings.Join(soaFields, " ")
	}
	rdata, err := dnsmsg.ParseRData(typ, text)
	if err != nil {
		return rr, "", fmt.Errorf("%w: %v", ErrZoneSyntax, err)
	}
	rr = dnsmsg.RR{
		Name:  owner,
		Type:  typ,
		Class: dnsmsg.ClassIN,
		TTL:   ttl,
		RData: rdata,
	}
	return rr, owner, nil
}

// expandName resolves a master-file name: "@" is the origin, absolute names
// (trailing dot) are kept, and relative names append the origin. The
// wildcard prefix is preserved.
func expandName(name, origin string) (string, error) {
	switch {
	case name == "@":
		return origin, nil
	case strings.HasSuffix(name, "."):
		name = dnsname.Normalize(name)
	default:
		name = dnsname.Normalize(name) + "." + origin
	}
	return name, checkName(name)
}

// checkName accepts a valid name made of printable ASCII other than the
// bytes the file syntax reads as something else, so the name is written
// bare: unquoted and unescaped.
func checkName(name string) error {
	for i := 0; i < len(name); i++ {
		if c := name[i]; c <= ' ' || c >= 0x7f || strings.IndexByte(`"$();@\`, c) >= 0 {
			return fmt.Errorf("%w: byte %q in name %q", ErrZoneSyntax, c, name)
		}
	}
	if err := dnsname.Validate(strings.TrimPrefix(name, "*.")); err != nil {
		return fmt.Errorf("%w: name %q: %v", ErrZoneSyntax, name, err)
	}
	return nil
}

// stripComment removes a trailing ;-comment, respecting double quotes
// (TXT rdata may contain semicolons) and backslash escapes.
func stripComment(line string) string {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			i++
		case '"':
			inQuote = !inQuote
		case ';':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

// splitRecordFields splits on whitespace but keeps double-quoted strings
// (minus the quotes) as single fields. A backslash is dropped and the byte
// after it taken as is.
func splitRecordFields(line string) []string {
	var fields []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			fields = append(fields, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '\\' && i+1 < len(line):
			i++
			cur.WriteByte(line[i])
		case c == '"':
			inQuote = !inQuote
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return fields
}
