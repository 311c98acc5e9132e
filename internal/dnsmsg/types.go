// Package dnsmsg implements the subset of the DNS wire format (RFC 1035,
// with the DNSSEC record types from RFC 4034) that the simulated resolver
// and authority exchange. Messages are encoded to and decoded from real
// packets, including domain-name compression, so the simulation exercises a
// genuine DNS code path rather than passing Go structs around.
package dnsmsg

import (
	"errors"
	"fmt"
	"strings"
)

// Type is a DNS resource record type.
type Type uint16

// Record types used by the simulation. The trace datasets in the paper carry
// A, CNAME and AAAA answers; NS/SOA/TXT appear in zone data and RRSIG/DNSKEY
// support the DNSSEC experiments.
const (
	TypeA      Type = 1
	TypeNS     Type = 2
	TypeCNAME  Type = 5
	TypeSOA    Type = 6
	TypeTXT    Type = 16
	TypeAAAA   Type = 28
	TypeDNSKEY Type = 48
	TypeRRSIG  Type = 46
)

// String returns the conventional mnemonic for t.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeDNSKEY:
		return "DNSKEY"
	case TypeRRSIG:
		return "RRSIG"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// ParseType converts a mnemonic back to a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "A":
		return TypeA, nil
	case "NS":
		return TypeNS, nil
	case "CNAME":
		return TypeCNAME, nil
	case "SOA":
		return TypeSOA, nil
	case "TXT":
		return TypeTXT, nil
	case "AAAA":
		return TypeAAAA, nil
	case "DNSKEY":
		return TypeDNSKEY, nil
	case "RRSIG":
		return TypeRRSIG, nil
	default:
		// The error keeps a copy, so s does not escape and a caller holding
		// bytes (the trace reader) converts them on its stack.
		return 0, fmt.Errorf("dnsmsg: unknown type %q", strings.Clone(s))
	}
}

// Class is a DNS class. Only IN is served; a resolver refuses the others.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes used by the simulation.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeRefused  RCode = 5
)

// String returns the conventional mnemonic for rc.
func (rc RCode) String() string {
	switch rc {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(rc))
	}
}

// Errors returned by the codec.
var (
	ErrTruncatedMessage = errors.New("dnsmsg: truncated message")
	ErrBadPointer       = errors.New("dnsmsg: invalid compression pointer")
	ErrNameTooLong      = errors.New("dnsmsg: name too long")
	ErrLabelTooLong     = errors.New("dnsmsg: label exceeds 63 octets")
	ErrDotInLabel       = errors.New("dnsmsg: label holds a dot")
	ErrBadRData         = errors.New("dnsmsg: malformed rdata")
)

// Header is the fixed 12-octet DNS message header.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is a single entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// RR is a resource record. RData holds the type-specific payload (see
// rdata.go): the address bytes for A, presentation text for the rest. The
// struct is 48 bytes, the size class a one-record []RR is allocated in; every
// cache entry holds one in its slot, so a field added here is paid for per
// cache slot.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	RData RData
}

// String renders the record in zone-file style.
func (rr RR) String() string {
	return fmt.Sprintf("%s %d IN %s %s", rr.Name, rr.TTL, rr.Type, rr.RData.Format(rr.Type))
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// NewQuery builds a recursive query for (name, qtype).
func NewQuery(id uint16, name string, qtype Type) *Message {
	return &Message{
		Header: Header{
			ID:               id,
			RecursionDesired: true,
		},
		Questions: []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
}
