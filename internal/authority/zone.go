// Package authority simulates the authoritative side of the DNS:
// programmatic answer synthesis, which answers every zone of the simulated
// namespace, zone data with exact and wildcard matches, which serves zone
// files, NXDOMAIN with SOA, and optional Ed25519 zone signing for the DNSSEC
// load experiments (paper Section VI-B).
package authority

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
)

// Errors reported by zone construction and lookup.
var (
	ErrNotInZone  = errors.New("authority: name not in zone")
	ErrDupZone    = errors.New("authority: zone already registered")
	ErrBadRecord  = errors.New("authority: record outside zone origin")
	ErrZoneOrigin = errors.New("authority: invalid zone origin")
)

// SynthFunc programmatically answers a query for a name inside a zone. It
// appends the answer RRset to dst and returns the extended slice and true —
// true with nothing appended is NODATA — or false when the name should fall
// through to wildcard/NXDOMAIN handling. Every zone of the simulated
// namespace answers through one: a disposable zone (McAfee-style reputation
// lookups, telemetry channels) answers any algorithmically generated child
// name, an ordinary or CDN zone its host pool, so the namespace is computed,
// not stored. Records added with Zone.Add serve zone files.
//
// The records belong to the question: their Name is left empty, and the
// server writes them under the question's own name (spelling it as a string
// only for a signer). name, normalized, and dst are the server's scratch,
// valid only during the call: a SynthFunc must not retain either, and the
// caller reuses the returned slice for the next query.
type SynthFunc func(name []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool)

// Zone holds the authoritative data for one DNS zone.
type Zone struct {
	origin string
	soa    dnsmsg.RR
	// records holds every record of an owner under the owner's name, grouped
	// by type, so one map probe finds the RRset asked for, a CNAME standing
	// in for it, or — owner present, type absent — NODATA. wildcards does the
	// same for "*.<parent>" owners, under the parent's name. Both are made
	// by the first Add: a zone that only synthesizes holds neither.
	records   map[string][]dnsmsg.RR
	wildcards map[string][]dnsmsg.RR
	synth     SynthFunc
	signer    *Signer
}

// negativeTTL is every zone's SOA minimum, the negative-caching TTL
// (RFC 2308), in seconds.
const negativeTTL = 300

// ZoneOption configures a Zone.
type ZoneOption interface {
	applyZone(*Zone)
}

type zoneOptionFunc func(*Zone)

func (f zoneOptionFunc) applyZone(z *Zone) { f(z) }

// WithSynth installs a programmatic answer synthesizer.
func WithSynth(fn SynthFunc) ZoneOption {
	return zoneOptionFunc(func(z *Zone) { z.synth = fn })
}

// WithSigner enables DNSSEC signing of every positive answer with the given
// signer.
func WithSigner(s *Signer) ZoneOption {
	return zoneOptionFunc(func(z *Zone) { z.signer = s })
}

// NewZone creates an empty zone rooted at origin.
func NewZone(origin string, opts ...ZoneOption) (*Zone, error) {
	origin = dnsname.Normalize(origin)
	if err := dnsname.Validate(origin); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrZoneOrigin, err)
	}
	z := &Zone{origin: origin}
	for _, o := range opts {
		o.applyZone(z)
	}
	z.soa = dnsmsg.RR{
		Name:  origin,
		Type:  dnsmsg.TypeSOA,
		Class: dnsmsg.ClassIN,
		TTL:   negativeTTL,
		RData: dnsmsg.Text(fmt.Sprintf("ns1.%s hostmaster.%s 2011120100 7200 3600 1209600 %d", origin, origin, negativeTTL)),
	}
	return z, nil
}

// Origin returns the zone apex name.
func (z *Zone) Origin() string { return z.origin }

// Add inserts a record, as the zone-file reader does. Wildcard owners are
// written "*.<suffix>"; the suffix must be the origin or below it.
func (z *Zone) Add(rr dnsmsg.RR) error {
	if z.records == nil {
		z.records = make(map[string][]dnsmsg.RR)
		z.wildcards = make(map[string][]dnsmsg.RR)
	}
	name := dnsname.Normalize(rr.Name)
	if rest, ok := strings.CutPrefix(name, "*."); ok {
		if !dnsname.IsSubdomainOf(rest, z.origin) {
			return fmt.Errorf("%w: %q not under %q", ErrBadRecord, rr.Name, z.origin)
		}
		rr.Name = name
		z.wildcards[rest] = insertByType(z.wildcards[rest], rr)
		return nil
	}
	if !dnsname.IsSubdomainOf(name, z.origin) {
		return fmt.Errorf("%w: %q not under %q", ErrBadRecord, rr.Name, z.origin)
	}
	rr.Name = name
	z.records[name] = insertByType(z.records[name], rr)
	return nil
}

// insertByType adds rr to an owner's records after the last one of its type
// (at the end for a new type): each type stays one contiguous run, in the
// order its records were added.
func insertByType(rrs []dnsmsg.RR, rr dnsmsg.RR) []dnsmsg.RR {
	at := len(rrs)
	for i := len(rrs); i > 0; i-- {
		if rrs[i-1].Type == rr.Type {
			at = i
			break
		}
	}
	return slices.Insert(rrs, at, rr)
}

// rrset returns the run of typ within an owner's records, nil when there is
// none. The result aliases rrs, with its capacity clipped to its length.
func rrset(rrs []dnsmsg.RR, typ dnsmsg.Type) []dnsmsg.RR {
	for i := range rrs {
		if rrs[i].Type != typ {
			continue
		}
		j := i + 1
		for j < len(rrs) && rrs[j].Type == typ {
			j++
		}
		return rrs[i:j:j]
	}
	return nil
}

// lookup answers (name, qtype), name normalized and held as bytes, from zone
// data. Resolution order follows real authoritative behaviour: exact match,
// then CNAME at the exact owner, then synthesizer, then the
// closest-enclosing wildcard, then NXDOMAIN (ErrNotInZone). A name with
// records of other types yields an empty, non-error answer (NODATA). An
// exact match hands back the zone's own RRset, which the caller must only
// read. owned reports that the records were made for the question — by the
// synthesizer, into *scratch (kept grown for the next call), or matched by a
// wildcard — and are to be named by it, whatever their Name says.
func (z *Zone) lookup(name []byte, qtype dnsmsg.Type, scratch *[]dnsmsg.RR) (rrs []dnsmsg.RR, owned bool, err error) {
	if !dnsname.IsSubdomainOf(name, z.origin) {
		return nil, false, ErrNotInZone
	}
	exact := z.records[string(name)]
	if rrs := rrset(exact, qtype); rrs != nil {
		return rrs, false, nil
	}
	// CNAME at the owner answers any qtype (except CNAME itself, handled above).
	if rrs := rrset(exact, dnsmsg.TypeCNAME); rrs != nil {
		return rrs, false, nil
	}
	if z.synth != nil {
		if rrs, ok := z.synth(name, qtype, (*scratch)[:0]); ok {
			*scratch = rrs[:0]
			return rrs, true, nil
		}
	}
	// Wildcard: closest enclosing "*.<parent>" walking up to the origin.
	for p := parent(name); len(p) > 0 && dnsname.IsSubdomainOf(p, z.origin); p = parent(p) {
		if wild := z.wildcards[string(p)]; wild != nil {
			if rrs := rrset(wild, qtype); rrs != nil {
				return rrs, true, nil
			}
			if rrs := rrset(wild, dnsmsg.TypeCNAME); rrs != nil {
				return rrs, true, nil
			}
		}
		if string(p) == z.origin {
			break
		}
	}
	// NODATA if the exact owner exists under another type.
	if exact != nil {
		return nil, false, nil
	}
	return nil, false, ErrNotInZone
}

// parent is dnsname.Parent for a name held as bytes.
func parent(name []byte) []byte {
	dot := bytes.IndexByte(name, '.')
	if dot < 0 {
		return nil
	}
	return name[dot+1:]
}
