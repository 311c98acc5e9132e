package main

import (
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
)

// Stand-alone layer passes: each drives one package directly with inputs
// taken from the workload, timed as a whole (one span per pass) so that no
// clock read sits inside the loop.

// passQueries is how many of the workload's queries a pass replays.
const passQueries = 100_000

// pass runs fn, which performs ops operations, inside a root span and
// returns nanoseconds per operation.
func (t *tracer) pass(name string, ops int, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, 0, start, end)
	if ops == 0 {
		return 0
	}
	return float64(end.Sub(start)) / float64(ops)
}

// cacheKey mirrors the resolver's (name, type) key shape.
type cacheKey struct {
	name  string
	qtype dnsmsg.Type
}

// cachePass drives the workload's own key stream through the cache
// package: advance the wheel, look the key up, insert it on a miss with
// the TTL its category would carry. Get and PutEv alternate in one loop,
// so only the rarer insertions are clocked one by one, and the lookups
// get what is left of the loop.
func (fx *simFixture) cachePass(out map[string]float64, sample []resolver.Query) {
	c := cache.New[cacheKey, int](fx.spec.cacheSize, cache.PolicyLRU)
	ttlOther := 300 * time.Second
	ttlDisposable := time.Duration(fx.spec.profile(fx.spec.start).ModeTTL()) * time.Second
	var putTime time.Duration
	puts := 0
	loop := fx.tr.pass("pass.cache", len(sample), func() {
		for _, q := range sample {
			c.Advance(q.Time)
			key := cacheKey{q.Name, q.Type}
			if _, ok := c.Get(key, q.Time); ok {
				continue
			}
			ttl := ttlOther
			if q.Category == cache.CategoryDisposable {
				ttl = ttlDisposable
			}
			start := time.Now()
			c.PutEv(key, 1, ttl, q.Category, q.Time)
			putTime += time.Since(start)
			puts++
		}
	})
	if puts > 0 {
		out["cache.put_ns"] = float64(putTime) / float64(puts)
	}
	out["cache.get_ns"] = loop - float64(putTime)/float64(len(sample))
}

// chrstatPass resolves the sample with plain capturing taps, then replays
// the captured observations into a fresh collector.
func (fx *simFixture) chrstatPass(out map[string]float64, sample []resolver.Query) {
	var below, above []resolver.Observation
	fx.cluster.SetTaps(
		resolver.TapFunc(func(ob resolver.Observation) { below = append(below, ob) }),
		resolver.TapFunc(func(ob resolver.Observation) { above = append(above, ob) }))
	for _, q := range sample {
		// A failed resolution only shortens the captured sample.
		_, _ = fx.cluster.Resolve(q)
	}
	fx.cluster.SetTaps(nil, nil)
	col := chrstat.NewCollector()
	out["chrstat.observe_ns"] = fx.tr.pass("pass.chrstat", len(below)+len(above), func() {
		for _, ob := range below {
			col.ObserveBelow(ob)
		}
		for _, ob := range above {
			col.ObserveAbove(ob)
		}
	})
}

// dnsmsgPass decodes and re-encodes the response wires a traced upstream
// (or the serve workload's authority) produced.
func dnsmsgPass(tr *tracer, out map[string]float64, wires [][]byte) {
	if len(wires) == 0 {
		return
	}
	msgs := make([]*dnsmsg.Message, 0, len(wires))
	sizes := make([]float64, 0, len(wires))
	out["dnsmsg.decode_ns"] = tr.pass("pass.dnsmsg.decode", len(wires), func() {
		for _, w := range wires {
			if m, err := dnsmsg.Decode(w); err == nil {
				msgs = append(msgs, m)
			}
		}
	})
	var buf []byte
	out["dnsmsg.encode_ns"] = tr.pass("pass.dnsmsg.encode", len(msgs), func() {
		for _, m := range msgs {
			// Every message here came out of Decode; it encodes.
			buf, _ = m.AppendEncode(buf[:0])
		}
	})
	for _, w := range wires {
		sizes = append(sizes, float64(len(w)))
	}
	out["dnsmsg.resp_bytes_p50"] = median(sizes)
}
