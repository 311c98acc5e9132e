package chrstat

import (
	"fmt"
	"slices"

	"dnsnoise/internal/resolver"
	"dnsnoise/internal/slab"
)

// ShardedCollector is the concurrent counterpart of Collector for clusters
// driven by per-server worker goroutines (resolver.Cluster.StartStream). Each
// simulated server gets a private Collector shard; the taps route every
// observation to the shard named by its Server index, so shards are only
// ever touched by their own worker and no locking is needed on the hot
// path. Merge folds the shards into shard 0 after the run, which spends the
// sharded collector.
//
// Because the cluster pins each client to one server, shard client sets
// are disjoint and the merged per-record client counts (including the
// 64-client saturation behaviour) match what a sequential Collector
// observing the same traffic would report.
type ShardedCollector struct {
	shards []*Collector
}

// NewShardedCollector returns a collector with one shard per server.
func NewShardedCollector(numServers int) *ShardedCollector {
	return NewShardedCollectorSize(numServers, nil)
}

// NewShardedCollectorSize returns a collector with one shard per server,
// shard i with room for names[i] names (see NewCollectorSize); a shard past
// the end of names starts empty.
func NewShardedCollectorSize(numServers int, names []int) *ShardedCollector {
	if numServers < 1 {
		numServers = 1
	}
	shards := make([]*Collector, numServers)
	for i := range shards {
		size := 0
		if i < len(names) {
			size = names[i]
		}
		shards[i] = NewCollectorSize(size)
	}
	return &ShardedCollector{shards: shards}
}

// NumNames returns each shard's NumNames, in server order: what a window
// sized from this one gives each shard room for.
func (s *ShardedCollector) NumNames() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.NumNames()
	}
	return out
}

// ObserveBelow routes one below-side observation to its server's shard.
// Exported so the sharded collector satisfies the ingest pipeline's
// observation-sink contract. Safe for concurrent use as long as
// observations with the same Server index arrive from one goroutine, which
// is exactly the contract a resolver.Stream provides.
func (s *ShardedCollector) ObserveBelow(ob resolver.Observation) {
	s.shard(ob.Server).ObserveBelow(ob)
}

// ObserveAbove routes one above-side observation to its server's shard,
// with the same contract as ObserveBelow.
func (s *ShardedCollector) ObserveAbove(ob resolver.Observation) {
	s.shard(ob.Server).ObserveAbove(ob)
}

func (s *ShardedCollector) shard(i int) *Collector {
	if i < 0 || i >= len(s.shards) {
		s.mustLive("observation into")
		panic(fmt.Sprintf("chrstat: observation from server %d, collector has %d shards", i, len(s.shards)))
	}
	return s.shards[i]
}

// mustLive panics, naming the misuse, when Merge has spent s.
func (s *ShardedCollector) mustLive(use string) {
	if s.shards == nil {
		panic("chrstat: " + use + " a ShardedCollector that Merge already spent")
	}
}

// Merge folds shards 1..n into shard 0, in server order, and returns shard
// 0. The result is what a sequential Collector reports that observed shard
// 0's stream, then shard 1's, and so on: counter totals and distinct-name
// sets are exact, a name's records come in shard 0's order and then what
// later shards add, TTL and Category are those of the first shard in server
// order that holds the record, and per-record client counts agree including
// saturation (see RRStat.absorb). A name or record shard 0 lacks is relinked
// from its shard, not copied, so the result holds on to every shard's slab
// chunks. Merge spends s: a second Merge, an observation or a Counts refresh
// after it panics.
func (s *ShardedCollector) Merge() *Collector {
	s.mustLive("Merge of")
	out := s.shards[0]
	for _, sh := range s.shards[1:] {
		out.fold(sh)
	}
	s.shards = nil
	return out
}

// Counts is a reusable per-name view of a ShardedCollector's per-record
// sums: what Merge().ByName() would report, for a reader of the counts
// alone (DHR, Misses), with no client set or name set copied per refresh
// and the collector left to go on observing. The zero
// value is ready. Its RRStats carry no client sets and are overwritten by
// the next Refresh: hold them, and the touched names, no longer than that.
// A name's group is a run of the view's pointer slab; one that outgrows its
// run moves to a run twice as long, and the old run is dropped at Reset.
type Counts struct {
	from    *ShardedCollector // the collector the view is attached to
	byName  map[string][]*RRStat
	touched []string
	slab    slab.Slab[RRStat]
	runs    slab.Slab[*RRStat]
}

// touchedRecord is a record with its counts when the epoch first touched it.
type touchedRecord struct {
	stat         *RRStat
	below, above uint64
}

// Refresh brings the view up to date with s, which must be quiescent, and
// returns it grouped by owner name, with the owner of each record observed
// since the last refresh: the shards of an attached collector list those as
// they go, and the view adds what each gained since, so a refresh costs what
// was touched and allocates only for new records. Name, Type, TTL, Category,
// Below and Above equal those of the collector Merge would fold s into. A
// collector serves one view, for life, and none once Merge has spent it.
func (v *Counts) Refresh(s *ShardedCollector) (byName map[string][]*RRStat, touched []string) {
	s.mustLive("Counts refresh of")
	if v.from != s { // attach: every record s holds is listed, as new
		*v = Counts{from: s, byName: make(map[string][]*RRStat)}
		for _, sh := range s.shards {
			sh.epoch, sh.touched = sh.epoch+1, sh.touched[:0]
			for st := range sh.all {
				st.epoch = sh.epoch
				sh.touched = append(sh.touched, touchedRecord{stat: st})
			}
		}
	}
	v.touched = v.touched[:0]
	for i, sh := range s.shards {
		for _, t := range sh.touched {
			src := t.stat
			group := v.byName[src.Name]
			at := slices.IndexFunc(group, func(d *RRStat) bool { return d.is(src.Type, src.RData) })
			if at < 0 {
				at = len(group)
				dst := v.slab.New()
				dst.Name, dst.Type, dst.RData = src.Name, src.Type, src.RData
				if len(group) == cap(group) {
					group = append(v.runs.Run(max(1, 2*len(group)))[:0], group...)
				}
				group = append(group, dst)
				v.byName[src.Name] = group
			}
			dst := group[at]
			// Merge takes TTL and Category from the first shard in server order
			// that holds the record: here, one no shard before it holds it too.
			if t.below|t.above == 0 && !slices.ContainsFunc(s.shards[:i], func(o *Collector) bool { return o.lookup(src.Name, src.Type, src.RData) != nil }) {
				dst.TTL, dst.Category = src.TTL, src.Category
			}
			dst.Below += src.Below - t.below
			dst.Above += src.Above - t.above
			v.touched = append(v.touched, src.Name)
		}
		sh.epoch++
		sh.touched = sh.touched[:0]
	}
	return v.byName, v.touched
}

// Reset empties the view and releases its records.
func (v *Counts) Reset() { *v = Counts{} }

// fold moves src's observations into c, and src must not be used after: a
// name c lacks takes src's entry, a record c lacks is relinked at the end of
// its name's chain, and a record both hold is summed into c's.
func (c *Collector) fold(src *Collector) {
	c.belowTotal += src.belowTotal
	c.aboveTotal += src.aboveTotal
	c.belowNX += src.belowNX
	c.aboveNX += src.aboveNX
	c.records += src.records
	for name, from := range src.names {
		e := c.names[name]
		if e == nil {
			c.names[name] = from
			continue
		}
		e.queried = e.queried || from.queried
		for st := from.head; st != nil; {
			next := st.next
			if dst, link := e.find(st.Type, st.RData); dst != nil {
				dst.absorb(st, &c.blocks)
				c.records--
			} else {
				st.next, *link = nil, st
			}
			st = next
		}
	}
}

// absorb sums one shard's record stats into dst. Client sets union up to
// the tracking cap: the count saturates at maxTrackedClients exactly when a
// sequential observer of the combined stream would saturate, because either
// some shard already overflowed (>=65 distinct clients on one stream) or
// the disjoint shard sets union past the cap during insertion. IDs are
// inserted in sorted order so that when the union saturates mid-shard, the
// retained set — and hence the whole merged collector — is a deterministic
// function of the shard contents, not of the order clients arrived in.
func (dst *RRStat) absorb(src *RRStat, blocks *slab.Slab[clientBlock]) {
	dst.Below += src.Below
	dst.Above += src.Above
	if src.nclients > 0 && !dst.clientsOverflow {
		var buf [maxTrackedClients]uint32
		ids := buf[:src.nclients]
		n := copy(ids, src.inlineIDs())
		for b := src.more; b != nil; b = b.next {
			n += copy(ids[n:], b.ids[:])
		}
		slices.Sort(ids)
		for _, id := range ids {
			if dst.clientsOverflow {
				break
			}
			dst.trackClient(id, blocks)
		}
	}
	if src.clientsOverflow {
		dst.clientsOverflow = true
	}
}
