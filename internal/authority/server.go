package authority

import (
	"fmt"
	"sync"
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
// HandleWire and AppendHandleWire are safe for concurrent use once all zones
// are registered: the zone and key maps are read-only after setup and the
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
func (s *Server) findZone(name []byte) (*Zone, bool) {
	for probe := name; len(probe) > 0; probe = parent(probe) {
		if z, ok := s.zones[string(probe)]; ok {
			return z, true
		}
	}
	return nil, false
}

// scratch is one answer's working memory: the question's name and the
// records a synthesizer appends for it. It comes from scratchPool because
// it must already be on the heap: a buffer on the stack handed to a
// SynthFunc, an indirect call, escapes and costs an allocation per query.
// What a used one still holds is overwritten by the next.
type scratch struct {
	name []byte
	rrs  []dnsmsg.RR
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{name: make([]byte, 0, dnsname.MaxNameLength+2)}
}}

// reply is one authoritative decision, before AppendHandleWire writes it to
// the wire.
type reply struct {
	rcode         dnsmsg.RCode
	authoritative bool
	answers       []dnsmsg.RR // zone data or scratch: read only
	owned         bool        // answers are named by the question, not by their Name
	rrsig         dnsmsg.RR   // follows answers when signed is set
	signed        bool
	soa           *dnsmsg.RR // authority section of negative replies
}

// answer decides the reply to (name, qtype), name normalized, and moves the
// counters. NXDOMAIN and NODATA replies carry the zone SOA; signed zones
// attach an RRSIG after each positive answer RRset.
func (s *Server) answer(name []byte, qtype dnsmsg.Type, sc *scratch) reply {
	s.queriesServed.Add(1)
	r := reply{authoritative: true}

	// DNSKEY queries are answered from the key registry: validating
	// resolvers fetch zone keys over the wire like any other record.
	if qtype == dnsmsg.TypeDNSKEY {
		if rrs, ok := s.keys[string(name)]; ok {
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
	answers, owned, err := z.lookup(name, qtype, &sc.rrs)
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
	r.answers, r.owned = answers, owned
	if z.signer != nil {
		owner := answers[0].Name
		if owned {
			owner = string(name)
		}
		if rrsig, err := z.signer.signAs(owner, answers); err == nil {
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

// HandleWire decodes a wire-format query, resolves it and returns the
// encoded response in a buffer of its own. Malformed queries yield a FORMERR
// under the query's id, or under id 0 when even the header is unreadable.
func (s *Server) HandleWire(query []byte) ([]byte, error) {
	return s.AppendHandleWire(nil, query)
}

// AppendHandleWire decodes a wire-format query, resolves it, and appends the
// encoded response to dst, returning the extended slice (see
// dnsmsg.WireHandler): with dst a caller-owned scratch buffer threaded
// through every call, the steady-state exchange allocates no response. A
// query's question, EDNS or not, is read in place into pooled scratch
// (dnsmsg.AppendSoleQuestion), looked up as bytes, and the reply goes from
// the zone's records — or the synthesizer's, appended into the same scratch
// — straight to the wire under the question's own bytes: no query or
// response Message is built and no name is spelled, so an unsigned answer
// allocates nothing. Nothing is kept on the Server: concurrent callers share
// only the read-only zone data and the atomic counters.
func (s *Server) AppendHandleWire(dst, query []byte) ([]byte, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	name, id, qtype, ok := dnsmsg.AppendSoleQuestion(sc.name[:0], query)
	if !ok {
		// A shape the reader does not take: several questions, records
		// other than one OPT, or garbage. The full decoder tells which.
		var msg dnsmsg.Message
		err := msg.Unpack(query)
		if err != nil || len(msg.Questions) != 1 {
			resp := dnsmsg.Message{Header: dnsmsg.Header{Response: true, RCode: dnsmsg.RCodeFormErr}}
			if len(query) >= 12 { // a readable header: answer under its id
				resp.Header.ID = uint16(query[0])<<8 | uint16(query[1])
			}
			if err == nil {
				resp.Questions = msg.Questions
			}
			return resp.AppendEncode(dst)
		}
		id, qtype = msg.Header.ID, msg.Questions[0].Type
		name = append(sc.name[:0], dnsname.Normalize(msg.Questions[0].Name)...)
	}
	sc.name = name[:0]
	r := s.answer(name, qtype, sc)

	var b dnsmsg.Builder
	b.Begin(dst, r.header(id))
	if err := b.QuestionBytes(name, qtype, dnsmsg.ClassIN); err != nil {
		return dst, err
	}
	for i := range r.answers {
		var err error
		if r.owned {
			err = b.AnswerAs(name, &r.answers[i])
		} else {
			err = b.Answer(&r.answers[i])
		}
		if err != nil {
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
