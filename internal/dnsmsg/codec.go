package dnsmsg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Flag bit positions within the header's 16-bit flags word.
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
)

// maxCompressionPointers bounds pointer chains while decompressing names to
// defeat pointer loops in malformed packets.
const maxCompressionPointers = 64

// maxRDLen is the largest rdata RDLENGTH can count.
const maxRDLen = 0xFFFF

// maxNameLen is the longest domain name in presentation form, without the
// trailing dot (RFC 1035 §2.3.4: 255 octets on the wire).
const maxNameLen = 253

// Offsets of the section counts within the header.
const (
	offQDCount = 4
	offANCount = 6
	offNSCount = 8
	offARCount = 10
)

// inlineTargets is how many compression targets a Builder tracks in its own
// array. A 12-label disposable name answered with an SOA needs 16; past the
// array the targets spill to a heap slice, so larger messages still compress
// fully.
const inlineTargets = 32

// Builder appends one wire-format message to a caller-owned buffer, section
// by section, compressing every name against the names already written. It
// is the only encoder: Message.AppendEncode walks a Message through it, and
// callers that already hold the header fields and records (the authority's
// answer path, the resolver's upstream query) drive it directly instead of
// assembling a Message first.
//
// A Builder carries no heap state for messages of up to inlineTargets
// distinct name suffixes, so it is meant to live on the caller's stack: the
// zero value is ready for Begin, and Begin resets a used one. Sections must
// be written in wire order; after any method returns an error the buffer
// holds a partial record and must be discarded.
type Builder struct {
	buf  []byte
	base int // message start within buf; compression offsets count from here

	// Compression targets: the offset of every label sequence written out in
	// full (RFC 1035 §4.1.4 lets a later name end in a pointer to any of
	// them). A candidate suffix is compared against the wire bytes at each
	// target, so nothing is hashed and no suffix string is kept.
	ntargets int
	inline   [inlineTargets]uint16
	spill    []uint16
}

// The methods that hand a name to a generic helper (appendName, appendRR)
// are marked go:noinline. Inlined into another package, a call to
// a shape instantiation is escape-analysed as leaking every argument, which
// would move the caller's stack Builder, and the record it writes, to the
// heap on every message.

// Begin starts a message after whatever dst already holds: the header goes
// out with zero section counts, and each record appended later bumps its
// count in place.
func (b *Builder) Begin(dst []byte, h Header) {
	b.buf, b.base = dst, len(dst)
	b.ntargets, b.spill = 0, b.spill[:0]

	flags := uint16(h.Opcode&0xF) << 11
	if h.Response {
		flags |= flagQR
	}
	if h.Authoritative {
		flags |= flagAA
	}
	if h.Truncated {
		flags |= flagTC
	}
	if h.RecursionDesired {
		flags |= flagRD
	}
	if h.RecursionAvailable {
		flags |= flagRA
	}
	flags |= uint16(h.RCode) & 0xF
	b.u16(h.ID)
	b.u16(flags)
	b.buf = append(b.buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Bytes returns the buffer: dst as given to Begin, extended by the message.
func (b *Builder) Bytes() []byte { return b.buf }

// Question appends one entry to the question section.
//
//go:noinline
func (b *Builder) Question(name string, qtype Type, class Class) error {
	return question(b, name, qtype, class)
}

// QuestionBytes is Question for a name held as bytes, such as the one
// AppendSoleQuestion reads.
//
//go:noinline
func (b *Builder) QuestionBytes(name []byte, qtype Type, class Class) error {
	return question(b, name, qtype, class)
}

func question[S string | []byte](b *Builder, name S, qtype Type, class Class) error {
	if err := appendName(b, name); err != nil {
		return err
	}
	b.u16(uint16(qtype))
	b.u16(uint16(class))
	b.bump(offQDCount)
	return nil
}

// Answer appends rr to the answer section.
func (b *Builder) Answer(rr *RR) error { return b.rr(offANCount, rr) }

// AnswerAs appends rr to the answer section under owner in place of
// rr.Name: a record a synthesizer or a wildcard made for the question goes
// out under the question's own bytes, never spelled as a string.
//
//go:noinline
func (b *Builder) AnswerAs(owner []byte, rr *RR) error { return appendRR(b, offANCount, owner, rr) }

// Authority appends rr to the authority section.
func (b *Builder) Authority(rr *RR) error { return b.rr(offNSCount, rr) }

// Encode serializes the message to wire format with name compression.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(make([]byte, 0, 512))
}

// AppendEncode serializes the message to wire format with name compression,
// appending to dst (which may be nil or a recycled buffer) and returning the
// extended slice. Compression offsets are relative to the message start, so
// dst may already hold unrelated bytes.
func (m *Message) AppendEncode(dst []byte) ([]byte, error) {
	var b Builder
	b.Begin(dst, m.Header)
	for i := range m.Questions {
		q := &m.Questions[i]
		if err := b.Question(q.Name, q.Type, q.Class); err != nil {
			return nil, fmt.Errorf("question %q: %w", q.Name, err)
		}
	}
	for si, section := range [...][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range section {
			if err := b.rr(offANCount+2*si, &section[i]); err != nil {
				return nil, fmt.Errorf("rr %q: %w", section[i].Name, err)
			}
		}
	}
	return b.Bytes(), nil
}

// Decode parses a wire-format message into a fresh Message.
func Decode(data []byte) (*Message, error) {
	m := new(Message)
	if err := m.Unpack(data); err != nil {
		return nil, err
	}
	return m, nil
}

// Unpack parses a wire-format message into m, replacing its contents. The
// section slices are truncated and refilled, so a Message kept by one caller
// and unpacked into repeatedly stops allocating them once they have grown to
// the largest message seen. Nothing in m refers to data afterwards: names and
// rdata are strings, not views of it, and every name that spells the first
// question's shares that one string. Records copied out of m stay valid
// across later Unpack calls — but m's own slices do not, and a caller that
// keeps records must copy the RR values out first. After an error m holds a
// partial message.
func (m *Message) Unpack(data []byte) error { return m.unpack(data, "", true) }

// UnpackReply is Unpack for the reply to a question the caller still holds,
// read by a caller that looks no further than the answers. It returns
// Unpack's header, questions, answers and error, and leaves Authority and
// Additional empty: those sections are walked by the same rules — names,
// pointers, rdata lengths — so UnpackReply rejects exactly what Unpack
// rejects, but nothing in them is spelled. Names in data that spell asked are
// handed that string instead of a copy, so a reply that echoes its question
// costs no string for the question or for any record it owns; asked only
// saves the copy and never changes the result.
func (m *Message) UnpackReply(data []byte, asked string) error { return m.unpack(data, asked, false) }

// unpack is Unpack and UnpackReply: tail says whether the authority and
// additional sections are kept or only walked.
func (m *Message) unpack(data []byte, asked string, tail bool) error {
	if len(data) < headerLen {
		return ErrTruncatedMessage
	}
	flags := binary.BigEndian.Uint16(data[2:])
	m.Header = Header{
		ID:                 binary.BigEndian.Uint16(data),
		Response:           flags&flagQR != 0,
		Opcode:             uint8(flags >> 11 & 0xF),
		Authoritative:      flags&flagAA != 0,
		Truncated:          flags&flagTC != 0,
		RecursionDesired:   flags&flagRD != 0,
		RecursionAvailable: flags&flagRA != 0,
		RCode:              RCode(flags & 0xF),
	}
	d := decoder{data: data, pos: headerLen, qname: asked}
	m.Questions = m.Questions[:0]
	for i := int(binary.BigEndian.Uint16(data[offQDCount:])); i > 0; i-- {
		q, err := d.question()
		if err != nil {
			return err
		}
		if len(m.Questions) == 0 {
			d.qname = q.Name
		}
		m.Questions = append(m.Questions, q)
	}
	var err error
	if m.Answers, err = d.section(m.Answers[:0], offANCount); err != nil {
		return err
	}
	d.skip = !tail
	if m.Authority, err = d.section(m.Authority[:0], offNSCount); err != nil {
		return err
	}
	m.Additional, err = d.section(m.Additional[:0], offARCount)
	return err
}

// AppendSoleQuestion reads the ID and question of a query straight off the
// wire, by the decoder's own rules for names, without a Message to unpack
// into. It takes one question and at most one other record: an EDNS0 OPT in
// the additional section, owned by the single root byte (not a pointer),
// with its rdata inside data — the query dig sends. The question's name is
// appended to dst in presentation form, normalized as dnsname.Normalize
// would (ASCII lower-cased in place; a decoded name has no trailing dot), and
// the extended dst is returned: the name is what follows len(dst). ok is
// false for any other shape, well-formed or not: those take Unpack.
func AppendSoleQuestion(dst, data []byte) (name []byte, id uint16, qtype Type, ok bool) {
	name, id, qtype, _, ok = appendSoleQuestion(dst, data)
	return name, id, qtype, ok
}

// AppendQuestion reads a query's ID and question as a server answers it: by
// AppendSoleQuestion where that reader takes the query, and otherwise by the
// full decoder, the name normalized alike (lower-cased, one trailing dot
// dropped). It returns the question's class too. ok is false when the query
// does not decode to exactly one question: a server answers that with
// AppendFormErr.
func AppendQuestion(dst, data []byte) (name []byte, id uint16, qtype Type, class Class, ok bool) {
	if name, id, qtype, class, ok = appendSoleQuestion(dst, data); ok {
		return name, id, qtype, class, ok
	}
	var msg Message
	if msg.Unpack(data) != nil || len(msg.Questions) != 1 {
		return dst, 0, 0, 0, false
	}
	q := msg.Questions[0]
	name = append(dst, strings.TrimSuffix(q.Name, ".")...)
	lowerASCII(name[len(dst):])
	return name, msg.Header.ID, q.Type, q.Class, true
}

// AppendFormErr appends the FORMERR that answers a query AppendQuestion
// cannot read: under the query's ID when its header is readable (0
// otherwise), echoing its questions when it decodes.
func AppendFormErr(dst, query []byte) ([]byte, error) {
	resp := Message{Header: Header{Response: true, RCode: RCodeFormErr}}
	if len(query) >= headerLen {
		resp.Header.ID = binary.BigEndian.Uint16(query)
	}
	var msg Message
	if msg.Unpack(query) == nil {
		resp.Questions = msg.Questions
	}
	return resp.AppendEncode(dst)
}

func appendSoleQuestion(dst, data []byte) (name []byte, id uint16, qtype Type, class Class, ok bool) {
	// The section counts as one number: QDCOUNT 1, ARCOUNT 0 or 1, the rest 0.
	if len(data) < headerLen || binary.BigEndian.Uint64(data[offQDCount:])&^1 != 1<<48 {
		return dst, 0, 0, 0, false
	}
	d := decoder{data: data, pos: headerLen}
	name, err := d.appendName(dst)
	end := d.pos + 4
	if err != nil || end > len(data) {
		return dst, 0, 0, 0, false
	}
	if data[offARCount+1] == 1 {
		// The OPT record: root owner, TYPE, CLASS, TTL, RDLEN, then rdata.
		if end+11 > len(data) || data[end] != 0 || Type(binary.BigEndian.Uint16(data[end+1:])) != TypeOPT ||
			end+11+int(binary.BigEndian.Uint16(data[end+9:])) > len(data) {
			return dst, 0, 0, 0, false
		}
	}
	lowerASCII(name[len(dst):])
	return name, binary.BigEndian.Uint16(data), Type(binary.BigEndian.Uint16(data[d.pos:])),
		Class(binary.BigEndian.Uint16(data[d.pos+2:])), true
}

// lowerASCII lower-cases A-Z in b in place.
func lowerASCII(b []byte) {
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
}

func (b *Builder) u8(v uint8)   { b.buf = append(b.buf, v) }
func (b *Builder) u16(v uint16) { b.buf = binary.BigEndian.AppendUint16(b.buf, v) }
func (b *Builder) u32(v uint32) { b.buf = binary.BigEndian.AppendUint32(b.buf, v) }

// bump increments the section count at header offset off.
func (b *Builder) bump(off int) {
	p := b.buf[b.base+off:]
	binary.BigEndian.PutUint16(p, binary.BigEndian.Uint16(p)+1)
}

func (b *Builder) target(i int) int {
	if i < inlineTargets {
		return int(b.inline[i])
	}
	return int(b.spill[i-inlineTargets])
}

func (b *Builder) addTarget(off int) {
	if b.ntargets < inlineTargets {
		b.inline[b.ntargets] = uint16(off)
	} else {
		b.spill = append(b.spill, uint16(off))
	}
	b.ntargets++
}

// name emits a possibly-compressed domain name. Compression targets are the
// suffixes of every name previously emitted (RFC 1035 §4.1.4).
func (b *Builder) name(name string) error { return appendName(b, name) }

// appendName is Builder.name for a name held as a string or as its bytes.
func appendName[S string | []byte](b *Builder, name S) error {
	if len(name) > 0 && name[len(name)-1] == '.' {
		name = name[:len(name)-1]
	}
	if len(name) > maxNameLen {
		return ErrNameTooLong
	}
	// Targets added while this name goes out spell longer suffixes of the
	// same name, so only the ones known on entry can match.
	known := b.ntargets
	for len(name) > 0 {
		if off := find(b, name, known); off >= 0 {
			b.u16(uint16(0xC000 | off))
			return nil
		}
		dot := indexDot(name)
		label := name
		if dot >= 0 {
			label = name[:dot]
		}
		if len(label) > 63 {
			return ErrLabelTooLong
		}
		if len(label) == 0 {
			return fmt.Errorf("%w: empty label in %q", ErrBadRData, name)
		}
		// A pointer holds 14 bits: names further in cannot be targets.
		if off := len(b.buf) - b.base; off < 0x3FFF {
			b.addTarget(off)
		}
		b.u8(uint8(len(label)))
		b.buf = append(b.buf, label...)
		if dot < 0 {
			break
		}
		name = name[dot+1:]
	}
	b.u8(0)
	return nil
}

// indexDot is strings.IndexByte(name, '.') for a string or its bytes.
func indexDot[S string | []byte](name S) int {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return i
		}
	}
	return -1
}

// find returns the offset of the one target among the first known that
// spells exactly name, or -1.
func find[S string | []byte](b *Builder, name S, known int) int {
	msg := b.buf[b.base:]
	for i := 0; i < known; i++ {
		if off := b.target(i); spells(msg, off, name) {
			return off
		}
	}
	return -1
}

// spells reports whether the name this builder wrote at msg[off:] — labels,
// possibly ending in a pointer to an earlier name — is, label for label and
// byte for byte, the presentation-form name.
func spells[S string | []byte](msg []byte, off int, name S) bool {
	for {
		n := int(msg[off])
		switch {
		case n >= 0xC0:
			off = int(binary.BigEndian.Uint16(msg[off:]) & 0x3FFF)
			continue
		case n == 0:
			return len(name) == 0
		case len(name) < n || string(name[:n]) != string(msg[off+1:off+1+n]):
			return false
		case len(name) == n:
			name = name[:0]
		case name[n] != '.':
			return false
		default:
			name = name[n+1:]
		}
		off += 1 + n
	}
}

//go:noinline
func (b *Builder) rr(countOff int, rr *RR) error { return appendRR(b, countOff, rr.Name, rr) }

// appendRR writes rr under owner, whatever rr.Name says.
func appendRR[S string | []byte](b *Builder, countOff int, owner S, rr *RR) error {
	if err := appendName(b, owner); err != nil {
		return err
	}
	b.u16(uint16(rr.Type))
	b.u16(uint16(rr.Class))
	b.u32(rr.TTL)
	// Reserve RDLENGTH, fill after encoding rdata.
	lenPos := len(b.buf)
	b.u16(0)
	start := len(b.buf)
	if err := b.rdata(rr.Type, rr.RData); err != nil {
		return err
	}
	rdlen := len(b.buf) - start
	if rdlen > maxRDLen {
		return ErrBadRData
	}
	binary.BigEndian.PutUint16(b.buf[lenPos:], uint16(rdlen))
	b.bump(countOff)
	return nil
}

func (b *Builder) rdata(typ Type, d RData) error {
	switch typ {
	case TypeA:
		if d.text != "" {
			return fmt.Errorf("%w: A record with a text payload %q", ErrBadRData, d.text)
		}
		b.buf = append(b.buf, d.ip4[:]...)
	case TypeAAAA:
		ip, err := parseIPv6(d.text)
		if err != nil {
			return err
		}
		b.buf = append(b.buf, ip[:]...)
	case TypeCNAME, TypeNS:
		// Note: compression inside rdata is legal for CNAME/NS.
		return b.name(d.text)
	case TypeTXT:
		b.txt(d.text)
	case TypeSOA:
		return b.soa(d.text)
	case TypeDNSKEY, TypeRRSIG:
		// Structured blobs are carried as opaque character strings: the
		// simulation validates signatures out of band (see authority), so
		// byte-exact RFC 4034 rdata layout buys nothing here.
		b.txt(d.text)
	default:
		return fmt.Errorf("%w: unsupported type %v", ErrBadRData, typ)
	}
	return nil
}

// txt encodes text as a sequence of <=255-octet character strings.
func (b *Builder) txt(s string) {
	if s == "" {
		b.u8(0)
		return
	}
	for len(s) > 0 {
		n := min(len(s), 255)
		b.u8(uint8(n))
		b.buf = append(b.buf, s[:n]...)
		s = s[n:]
	}
}

// soa encodes the presentation form "mname rname serial refresh retry expire
// minimum": seven fields separated by ASCII white space, the five numbers
// plain decimal uint32s. Every negative answer's SOA passes through here, so
// the fields are cut by a byte loop: strings.IndexAny and TrimLeft over a
// set build that set on every call.
func (b *Builder) soa(s string) error {
	var fields [7]string
	n := 0
	for i := 0; i < len(s); {
		if asciiSpace(s[i]) {
			i++
			continue
		}
		end := i + 1
		for end < len(s) && !asciiSpace(s[end]) {
			end++
		}
		if n < len(fields) {
			fields[n] = s[i:end]
		}
		n, i = n+1, end
	}
	if n != len(fields) {
		return fmt.Errorf("%w: SOA wants 7 fields, got %d", ErrBadRData, n)
	}
	if err := b.name(fields[0]); err != nil {
		return err
	}
	if err := b.name(fields[1]); err != nil {
		return err
	}
	for _, f := range fields[2:] {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return fmt.Errorf("%w: SOA field %q: %v", ErrBadRData, f, err)
		}
		b.u32(uint32(v))
	}
	return nil
}

// asciiSpace reports whether c is one of the six ASCII white-space bytes,
// " \t\n\v\f\r".
func asciiSpace(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

// decoder walks a wire-format buffer.
type decoder struct {
	data []byte
	pos  int
	// qname is the first question's name and, until that is decoded, the
	// name the caller asked about. A response repeats it as the owner of
	// (nearly) every record, so names that decode to the same bytes are handed
	// this string instead of a new one.
	qname string
	// skip walks records by the same rules without spelling them: names and
	// rdata come back empty and section keeps none.
	skip bool
}

func (d *decoder) u8() (uint8, error) {
	if d.pos+1 > len(d.data) {
		return 0, ErrTruncatedMessage
	}
	v := d.data[d.pos]
	d.pos++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.data) {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint16(d.data[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.data) {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.data) {
		return nil, ErrTruncatedMessage
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// section appends the records of one section to rrs; countOff is where the
// header keeps the section's count.
func (d *decoder) section(rrs []RR, countOff int) ([]RR, error) {
	for i := int(binary.BigEndian.Uint16(d.data[countOff:])); i > 0; i-- {
		rr, err := d.rr()
		if err != nil {
			return rrs, err
		}
		if !d.skip {
			rrs = append(rrs, rr)
		}
	}
	return rrs, nil
}

// name decodes a possibly-compressed domain name starting at the current
// position: assembled in a stack buffer, converted to a string once.
func (d *decoder) name() (string, error) {
	if d.skip {
		_, err := d.appendName(nil)
		return "", err
	}
	var scratch [maxNameLen]byte
	name, err := d.appendName(scratch[:0])
	if err != nil {
		return "", err
	}
	if string(name) == d.qname {
		return d.qname, nil
	}
	return string(name), nil
}

// appendName decodes the name at the current position in presentation form
// onto dst and advances past it; in skip mode it checks the name by the same
// rules and appends nothing. A label holding a dot is refused: its
// presentation form would spell two labels, another name.
func (d *decoder) appendName(dst []byte) ([]byte, error) {
	size := 0 // the name's presentation length so far
	pos := d.pos
	jumped := false
	jumps := 0
	for {
		if pos >= len(d.data) {
			return dst, ErrTruncatedMessage
		}
		b := d.data[pos]
		switch {
		case b == 0:
			if !jumped {
				d.pos = pos + 1
			}
			return dst, nil
		case b&0xC0 == 0xC0:
			if pos+2 > len(d.data) {
				return dst, ErrTruncatedMessage
			}
			target := int(binary.BigEndian.Uint16(d.data[pos:]) & 0x3FFF)
			if target >= pos {
				return dst, ErrBadPointer
			}
			if !jumped {
				d.pos = pos + 2
				jumped = true
			}
			jumps++
			if jumps > maxCompressionPointers {
				return dst, ErrBadPointer
			}
			pos = target
		case b&0xC0 != 0:
			return dst, ErrBadPointer
		default:
			n := int(b)
			if pos+1+n > len(d.data) {
				return dst, ErrTruncatedMessage
			}
			grown := size + n
			if size > 0 {
				grown++ // the separating dot
			}
			if grown > maxNameLen {
				return dst, ErrNameTooLong
			}
			label := d.data[pos+1 : pos+1+n]
			if bytes.IndexByte(label, '.') >= 0 {
				return dst, ErrDotInLabel
			}
			if !d.skip {
				if size > 0 {
					dst = append(dst, '.')
				}
				dst = append(dst, label...)
			}
			size = grown
			pos += 1 + n
		}
	}
}

// question decodes one question-section entry.
func (d *decoder) question() (Question, error) {
	var q Question
	name, err := d.name()
	if err != nil {
		return q, err
	}
	typ, err := d.u16()
	if err != nil {
		return q, err
	}
	class, err := d.u16()
	if err != nil {
		return q, err
	}
	return Question{Name: name, Type: Type(typ), Class: Class(class)}, nil
}

func (d *decoder) rr() (RR, error) {
	var rr RR
	name, err := d.name()
	if err != nil {
		return rr, err
	}
	typ, err := d.u16()
	if err != nil {
		return rr, err
	}
	class, err := d.u16()
	if err != nil {
		return rr, err
	}
	ttl, err := d.u32()
	if err != nil {
		return rr, err
	}
	rdlen, err := d.u16()
	if err != nil {
		return rr, err
	}
	end := d.pos + int(rdlen)
	if end > len(d.data) {
		return rr, ErrTruncatedMessage
	}
	rr.Name = name
	rr.Type = Type(typ)
	rr.Class = Class(class)
	rr.TTL = ttl
	rdata, err := d.rdata(rr.Type, int(rdlen))
	if err != nil {
		return rr, err
	}
	if d.pos != end {
		return rr, fmt.Errorf("%w: rdata length mismatch for %v", ErrBadRData, rr.Type)
	}
	rr.RData = rdata
	return rr, nil
}

func (d *decoder) rdata(typ Type, rdlen int) (out RData, err error) {
	var b []byte
	switch typ {
	case TypeA:
		if b, err = d.bytes(4); err == nil {
			out.ip4 = [4]byte(b)
		}
	case TypeAAAA:
		if b, err = d.bytes(16); err == nil && !d.skip {
			out.text = formatIPv6([16]byte(b))
		}
	case TypeCNAME, TypeNS:
		out.text, err = d.name()
	case TypeTXT, TypeDNSKEY, TypeRRSIG:
		out.text, err = d.txt(rdlen)
	case TypeSOA:
		out.text, err = d.soa()
	default:
		// Skip unknown rdata opaquely and surface it as hex-free placeholder.
		if b, err = d.bytes(rdlen); err == nil && !d.skip {
			out.text = `\# ` + strconv.Itoa(len(b))
		}
	}
	return out, err
}

// txt joins the character strings of rdlen octets of rdata.
func (d *decoder) txt(rdlen int) (string, error) {
	end := d.pos + rdlen
	var sb strings.Builder
	if !d.skip {
		sb.Grow(rdlen)
	}
	for d.pos < end {
		n, err := d.u8()
		if err != nil {
			return "", err
		}
		b, err := d.bytes(int(n))
		if err != nil {
			return "", err
		}
		if !d.skip {
			sb.Write(b)
		}
	}
	return sb.String(), nil
}

func (d *decoder) soa() (string, error) {
	// Two names, five decimal uint32s and the six spaces between them.
	var scratch [2*maxNameLen + 5*10 + 6]byte
	b, err := d.appendName(scratch[:0])
	if err != nil {
		return "", err
	}
	b = append(b, ' ')
	if b, err = d.appendName(b); err != nil {
		return "", err
	}
	for i := 0; i < 5; i++ {
		v, err := d.u32()
		if err != nil {
			return "", err
		}
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	if d.skip {
		return "", nil
	}
	return string(b), nil
}

// parseIPv4 reads a dotted quad: exactly four octets of one to three decimal
// digits each, at most 255, and nothing else — no sign, no blanks, no
// trailing bytes.
func parseIPv4(s string) ([4]byte, error) {
	var ip [4]byte
	rest := s
	for i := range ip {
		octet := rest
		if i < len(ip)-1 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return ip, fmt.Errorf("%w: bad IPv4 %q", ErrBadRData, s)
			}
			octet, rest = rest[:dot], rest[dot+1:]
		}
		v, ok := 0, len(octet) >= 1 && len(octet) <= 3
		for j := 0; ok && j < len(octet); j++ {
			ok = octet[j] >= '0' && octet[j] <= '9'
			v = v*10 + int(octet[j]-'0')
		}
		if !ok || v > 255 {
			return ip, fmt.Errorf("%w: bad IPv4 octet %q", ErrBadRData, octet)
		}
		ip[i] = byte(v)
	}
	return ip, nil
}

func formatIPv4(ip [4]byte) string {
	var buf [len("255.255.255.255")]byte
	b := buf[:0]
	for i, octet := range ip {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(octet), 10)
	}
	return string(b)
}

// parseIPv6 accepts the full 8-group hex form with optional "::" shorthand.
func parseIPv6(s string) ([16]byte, error) {
	var ip [16]byte
	var groups, tail [8]uint16
	head, rest, short := strings.Cut(s, "::")
	nh, err := parseHexGroups(head, &groups)
	if err != nil {
		return ip, err
	}
	nt, err := parseHexGroups(rest, &tail)
	if err != nil {
		return ip, err
	}
	if nh+nt > 8 || (!short && nh != 8) {
		return ip, fmt.Errorf("%w: bad IPv6 %q", ErrBadRData, s)
	}
	copy(groups[8-nt:], tail[:nt])
	for i, g := range groups {
		binary.BigEndian.PutUint16(ip[2*i:], g)
	}
	return ip, nil
}

// parseHexGroups reads colon-separated hex groups from s into out and
// returns how many there were; the empty string holds none.
func parseHexGroups(s string, out *[8]uint16) (int, error) {
	n := 0
	for more := s != ""; more; n++ {
		var g string
		g, s, more = strings.Cut(s, ":")
		if n == len(out) {
			return 0, fmt.Errorf("%w: bad IPv6 group %q", ErrBadRData, g)
		}
		v, err := parseHexGroup(g)
		if err != nil {
			return 0, err
		}
		out[n] = v
	}
	return n, nil
}

func parseHexGroup(g string) (uint16, error) {
	if len(g) == 0 || len(g) > 4 {
		return 0, fmt.Errorf("%w: bad IPv6 group %q", ErrBadRData, g)
	}
	var v uint16
	for i := 0; i < len(g); i++ {
		c := g[i]
		var d uint16
		switch {
		case c >= '0' && c <= '9':
			d = uint16(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint16(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint16(c-'A') + 10
		default:
			return 0, fmt.Errorf("%w: bad IPv6 group %q", ErrBadRData, g)
		}
		v = v<<4 | d
	}
	return v, nil
}

// formatIPv6 renders the canonical un-shortened lowercase form. A fixed form
// keeps RR deduplication keys stable.
func formatIPv6(ip [16]byte) string {
	var buf [len("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")]byte
	b := buf[:0]
	for i := 0; i < len(ip); i += 2 {
		if i > 0 {
			b = append(b, ':')
		}
		b = strconv.AppendUint(b, uint64(binary.BigEndian.Uint16(ip[i:])), 16)
	}
	return string(b)
}
