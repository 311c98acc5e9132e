package resolver

import (
	"time"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/qlog"
)

// Shard is one server of a cluster answering DNS queries off the wire: a
// dnsmsg.WireHandler whose replies come from the server's cache, recursing
// to the cluster's upstream on a miss, as Resolve answers a Query. It is one
// server's state, so one goroutine drives it: one UDP listener, no TCP
// lane. It reads no clock: SetNow sets the time its queries resolve at,
// which drives the cache's expiry, so a front door reads the clock once per
// batch of datagrams. A wire query has no ground-truth label and, here, no
// client: it resolves as CategoryOther, ClientID 0.
type Shard struct {
	c    *Cluster
	s    *server
	now  time.Time
	name []byte // the question's scratch
}

// Shard returns server i as a wire handler.
func (c *Cluster) Shard(i int) *Shard { return &Shard{c: c, s: c.servers[i]} }

// SetNow sets the time the next queries resolve at.
func (sh *Shard) SetNow(now time.Time) { sh.now = now }

// AppendHandleWire answers query, appending the reply to dst (see
// dnsmsg.WireHandler). The reply carries the query's ID and RD bit, RA set,
// and its question as dnsmsg.AppendQuestion reads it (the name
// normalized):
//
//   - a query without exactly one readable question gets the FORMERR the
//     authority gives it (dnsmsg.AppendFormErr);
//   - a class other than IN is REFUSED, under the class asked: the cache
//     holds IN data only;
//   - any other gets the rcode and answer section Resolve gives its
//     question, or SERVFAIL when resolution fails.
//
// A hit allocates nothing; a miss spells the name once, for its cache key.
// A query the cluster's log samples is delivered to the log's sinks before
// the call returns; the FORMERR and REFUSED ones, which resolve nothing, are
// logged with outcome error, as a front door logs a query its handler
// rejects.
func (sh *Shard) AppendHandleWire(dst, query []byte) ([]byte, error) {
	name, id, qtype, class, ok := dnsmsg.AppendQuestion(sh.name[:0], query)
	if !ok {
		sh.logError(nil, 0)
		sh.s.qrec.Drain()
		return dnsmsg.AppendFormErr(dst, query)
	}
	sh.name = name[:0]
	h := dnsmsg.Header{ID: id, Response: true, RecursionDesired: query[2]&1 != 0, RecursionAvailable: true}
	var answers []dnsmsg.RR
	if class != dnsmsg.ClassIN {
		h.RCode = dnsmsg.RCodeRefused
		sh.logError(name, qtype)
	} else if resp, err := sh.c.resolveOn(sh.s, Query{Time: sh.now, Type: qtype}, name); err != nil {
		h.RCode = dnsmsg.RCodeServFail
	} else {
		h.RCode, answers = resp.RCode, resp.Answers
	}
	sh.s.qrec.Drain()
	var b dnsmsg.Builder
	b.Begin(dst, h)
	if err := b.QuestionBytes(name, qtype, class); err != nil {
		return dst, err
	}
	for i := range answers {
		if err := b.Answer(&answers[i]); err != nil {
			return dst, err
		}
	}
	return b.Bytes(), nil
}

// logError samples a query answered without resolving, as resolveOn samples
// one it resolves, and records a sampled one's event, outcome error, for the
// caller's Drain. name is nil when the question is unreadable.
func (sh *Shard) logError(name []byte, qtype dnsmsg.Type) {
	if !sh.s.qrec.Sample() {
		return
	}
	ev := qlog.Event{Time: sh.now, Outcome: qlog.OutcomeError}
	if name != nil {
		ev.Name, ev.Qtype = string(name), qtype.String()
	}
	sh.s.qrec.Emit(ev)
}
