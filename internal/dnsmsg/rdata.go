package dnsmsg

// RData is a record's type-specific payload: the four address bytes of an A
// record, and presentation text for every other type — a domain name for
// CNAME/NS, free text for TXT, "mname rname serial refresh retry expire
// minimum" for SOA, an opaque blob for DNSKEY/RRSIG, and the colon-hex form
// for AAAA. It is comparable, and with the type beside it and under an owner
// name it is a record's identity: the CHR collector and the passive-DNS store
// tell a name's records apart by comparing it. A value does not know its
// type; the record around it does.
//
// The address bytes sit where an RR already had padding, so an A record's
// address costs no string on either side of the wire and the RR did not grow
// to hold it (TestRecordSizes). AAAA stays text on purpose: sixteen more
// bytes on every record cost more memory than the one string per AAAA answer
// they would save.
type RData struct {
	text string
	ip4  [4]byte
}

// IPv4 is the payload of an A record for the address a.b.c.d.
func IPv4(a, b, c, d byte) RData { return RData{ip4: [4]byte{a, b, c, d}} }

// Text is the payload of a record of any type but A, taken as is: it is for
// text the program made itself. Text from outside goes through ParseRData.
func Text(s string) RData { return RData{text: s} }

// ParseRData reads the presentation form of a type-t payload. It rejects
// (ErrBadRData, or a name error) what the encoder could not put on the wire,
// by encoding it: what it accepts, a Builder encodes.
func ParseRData(t Type, s string) (RData, error) {
	if t == TypeA {
		ip, err := parseIPv4(s)
		return RData{ip4: ip}, err
	}
	d := RData{text: s}
	var b Builder
	b.Begin(nil, Header{})
	if err := b.rdata(t, d); err != nil {
		return RData{}, err
	}
	if len(b.buf)-headerLen > maxRDLen {
		return RData{}, ErrBadRData
	}
	return d, nil
}

// IPv4 returns the address bytes of an A payload.
func (d RData) IPv4() [4]byte { return d.ip4 }

// Text returns the presentation text of a payload of any type but A.
func (d RData) Text() string { return d.text }

// Format returns the presentation form of d as the payload of a type-t
// record. For an A record the dotted quad is built here, on demand: only
// what prints a record pays for it.
func (d RData) Format(t Type) string {
	if t == TypeA {
		return formatIPv4(d.ip4)
	}
	return d.text
}

// TextLen is len(d.Format(t)) without building the string.
func (d RData) TextLen(t Type) int {
	if t != TypeA {
		return len(d.text)
	}
	n := len("0.0.0.0")
	for _, octet := range d.ip4 {
		if octet >= 100 {
			n += 2
		} else if octet >= 10 {
			n++
		}
	}
	return n
}
