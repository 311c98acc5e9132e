package authority

import (
	"fmt"
	"sync/atomic"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dnsname"
)

// ServerStats counts authoritative-side activity. QueriesServed is the
// "traffic above the recursive DNS servers" in the paper's terminology.
type ServerStats struct {
	QueriesServed    uint64
	NXDomains        uint64
	Signatures       uint64 // RRSIGs attached to responses
	UnmatchedQueries uint64 // queries for names outside every zone
}

// Server routes queries to the longest-matching registered zone and builds
// wire-correct responses. It stands in for the entire authoritative side of
// the Internet: root, TLD and leaf delegations are collapsed into a direct
// lookup, which preserves everything the recursive cache observes.
//
// Resolve and HandleWire are safe for concurrent use once all zones are
// registered: the zone and key maps are read-only after setup and the
// counters are atomic.
type Server struct {
	zones map[string]*Zone
	keys  map[string][]dnsmsg.RR // zone origin -> DNSKEY RRset for signed zones

	queriesServed    atomic.Uint64
	nxDomains        atomic.Uint64
	signatures       atomic.Uint64
	unmatchedQueries atomic.Uint64
}

// NewServer returns a server with no zones.
func NewServer() *Server {
	return &Server{
		zones: make(map[string]*Zone),
		keys:  make(map[string][]dnsmsg.RR),
	}
}

// AddZone registers a zone. Registering the same origin twice is an error.
func (s *Server) AddZone(z *Zone) error {
	if _, ok := s.zones[z.origin]; ok {
		return fmt.Errorf("%w: %q", ErrDupZone, z.origin)
	}
	s.zones[z.origin] = z
	if z.signer != nil {
		s.keys[z.origin] = []dnsmsg.RR{z.signer.DNSKEY()}
	}
	return nil
}

// Zone returns the registered zone with the given origin, if any.
func (s *Server) Zone(origin string) (*Zone, bool) {
	z, ok := s.zones[dnsname.Normalize(origin)]
	return z, ok
}

// DNSKEY returns the public key record for a signed zone.
func (s *Server) DNSKEY(origin string) (dnsmsg.RR, bool) {
	rrs, ok := s.keys[dnsname.Normalize(origin)]
	if !ok {
		return dnsmsg.RR{}, false
	}
	return rrs[0], true
}

// Stats returns a copy of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		QueriesServed:    s.queriesServed.Load(),
		NXDomains:        s.nxDomains.Load(),
		Signatures:       s.signatures.Load(),
		UnmatchedQueries: s.unmatchedQueries.Load(),
	}
}

// findZone locates the longest-suffix zone containing name.
func (s *Server) findZone(name string) (*Zone, bool) {
	for probe := name; probe != ""; probe = dnsname.Parent(probe) {
		if z, ok := s.zones[probe]; ok {
			return z, true
		}
	}
	return nil, false
}

// reply is one authoritative decision, before it takes a form: Resolve wraps
// it in a Message, AppendHandleWire writes it to the wire.
type reply struct {
	name          string // the question's name, normalized
	rcode         dnsmsg.RCode
	authoritative bool
	answers       []dnsmsg.RR // may be zone data: read only
	rrsig         dnsmsg.RR   // follows answers when signed is set
	signed        bool
	soa           *dnsmsg.RR // authority section of negative replies
}

// answer decides the reply to (name, qtype) and moves the counters.
// NXDOMAIN and NODATA replies carry the zone SOA; signed zones attach an
// RRSIG after each positive answer RRset.
func (s *Server) answer(name string, qtype dnsmsg.Type) reply {
	s.queriesServed.Add(1)
	name = dnsname.Normalize(name)
	r := reply{name: name, authoritative: true}

	// DNSKEY queries are answered from the key registry: validating
	// resolvers fetch zone keys over the wire like any other record.
	if qtype == dnsmsg.TypeDNSKEY {
		if rrs, ok := s.keys[name]; ok {
			r.answers = rrs
			return r
		}
	}
	z, ok := s.findZone(name)
	if !ok {
		s.unmatchedQueries.Add(1)
		s.nxDomains.Add(1)
		r.rcode, r.authoritative = dnsmsg.RCodeNXDomain, false
		return r
	}
	answers, err := z.lookup(name, qtype)
	if err != nil {
		s.nxDomains.Add(1)
		r.rcode, r.soa = dnsmsg.RCodeNXDomain, &z.soa
		return r
	}
	if len(answers) == 0 {
		// NODATA: NOERROR with SOA in authority.
		r.soa = &z.soa
		return r
	}
	// A CNAME answer to a non-CNAME query leaves chain-following to the
	// recursive resolver, as in real DNS.
	r.answers = answers
	if z.signer != nil {
		if rrsig, err := z.signer.Sign(answers); err == nil {
			r.rrsig, r.signed = rrsig, true
			s.signatures.Add(1)
		}
	}
	return r
}

// header is the response header every reply goes out under. RD is set
// whatever the query said: the server has always answered as if asked
// recursively, and recorded traffic depends on the bytes.
func (r *reply) header(id uint16) dnsmsg.Header {
	return dnsmsg.Header{
		ID:                 id,
		Response:           true,
		Authoritative:      r.authoritative,
		RecursionDesired:   true,
		RecursionAvailable: true,
		RCode:              r.rcode,
	}
}

// Resolve answers (name, qtype) and returns the full response message.
// NXDOMAIN responses carry the zone SOA in the authority section; signed
// zones attach an RRSIG after each positive answer RRset.
func (s *Server) Resolve(name string, qtype dnsmsg.Type) *dnsmsg.Message {
	r := s.answer(name, qtype)
	resp := &dnsmsg.Message{
		Header:    r.header(0),
		Questions: []dnsmsg.Question{{Name: r.name, Type: qtype, Class: dnsmsg.ClassIN}},
	}
	resp.Answers = append(resp.Answers, r.answers...) // a copy: zone data stays private
	if r.signed {
		resp.Answers = append(resp.Answers, r.rrsig)
	}
	if r.soa != nil {
		resp.Authority = append(resp.Authority, *r.soa)
	}
	return resp
}

// HandleWire decodes a wire-format query, resolves it and returns the
// encoded response in a buffer of its own. Malformed queries yield a FORMERR
// with a zeroed question section when even the header is unreadable.
func (s *Server) HandleWire(query []byte) ([]byte, error) {
	return s.AppendHandleWire(nil, query)
}

// AppendHandleWire decodes a wire-format query, resolves it, and appends the
// encoded response to dst, returning the extended slice (see
// dnsmsg.WireHandler): with dst a caller-owned scratch buffer threaded
// through every call, the steady-state exchange allocates no response. A
// plain query's question is read in place and the reply goes from the zone's
// records straight to the wire — no query or response Message is built — so
// what a call allocates is the question's name, plus whatever a synthesizer
// or signer makes. Nothing is kept on the Server: concurrent callers share
// only the read-only zone data and the atomic counters.
func (s *Server) AppendHandleWire(dst, query []byte) ([]byte, error) {
	id, q, ok := dnsmsg.SoleQuestion(query)
	if !ok {
		// Not a plain one-question query: an EDNS query (OPT in the
		// additional section), several questions, or garbage. The full
		// decoder tells which.
		var msg dnsmsg.Message
		err := msg.Unpack(query)
		if err != nil || len(msg.Questions) != 1 {
			resp := dnsmsg.Message{Header: dnsmsg.Header{Response: true, RCode: dnsmsg.RCodeFormErr}}
			if err == nil {
				resp.Header.ID = msg.Header.ID
				resp.Questions = msg.Questions
			}
			return resp.AppendEncode(dst)
		}
		id, q = msg.Header.ID, msg.Questions[0]
	}
	r := s.answer(q.Name, q.Type)

	var b dnsmsg.Builder
	b.Begin(dst, r.header(id))
	if err := b.Question(r.name, q.Type, dnsmsg.ClassIN); err != nil {
		return dst, err
	}
	for i := range r.answers {
		if err := b.Answer(&r.answers[i]); err != nil {
			return dst, err
		}
	}
	if r.signed {
		if err := b.Answer(&r.rrsig); err != nil {
			return dst, err
		}
	}
	if r.soa != nil {
		if err := b.Authority(r.soa); err != nil {
			return dst, err
		}
	}
	return b.Bytes(), nil
}
