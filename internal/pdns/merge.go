package pdns

import (
	"dnsnoise/internal/dnsmsg"
)

// MergeStores unions per-PoP rpDNS stores into one global view, the
// fleet-side equivalent of running a single store over the whole trace.
// Records are deduplicated by (name, type, rdata) with the earliest
// FirstSeen across inputs winning — a record two PoPs both observed is
// counted once, on the day the fleet first saw it, exactly as a single
// store's first-sighting-wins rule would have. Series matchers are
// inherited from the first store and the per-day accounting is rebuilt
// from the merged record set, so Days() on the result is identical
// regardless of how many PoPs the traffic was partitioned across.
//
// The inputs are read under their shard locks but not modified; the
// result is a fresh independent store.
func MergeStores(stores ...*Store) *Store {
	out := NewStore()
	var first *Store
	for _, s := range stores {
		if s != nil {
			first = s
			break
		}
	}
	if first == nil {
		return out
	}
	for _, pred := range first.seriesFn {
		out.AddSeries(pred)
	}
	// Fold the records into out's own index first, the earliest sighting of
	// each winning; count them into days once every sighting is in.
	for _, s := range stores {
		if s == nil {
			continue
		}
		for rec := range s.all {
			m, added := out.shardFor(rec.Name).record(dnsmsg.RR{Name: rec.Name, Type: rec.Type, RData: rec.RData})
			if added || rec.firstSeen < m.firstSeen {
				m.firstSeen, m.Category = rec.firstSeen, rec.Category
			}
		}
	}
	for rec := range out.all {
		out.countNew(out.shardFor(rec.Name), rec)
	}
	return out
}
