// Package sim is the one place the simulated world is put together: a
// namespace (workload.Registry), its authoritative server, a recursive
// resolver cluster and a traffic generator, sized by a Scale. Every CLI and
// every experiment builds its environment here, registers its sizing flags
// from the groups below, opens its query stream through Source and starts
// its observability through ObsFlags — so the seed derivations, the flag
// defaults and the shutdown order are each decided once.
package sim

import (
	"flag"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/qlog"
)

// Scale sizes a simulation run.
type Scale struct {
	Seed               int64
	NonDisposableZones int
	DisposableZones    int
	HostsPerZoneMax    int
	Clients            int
	BaseEventsPerDay   int
	Servers            int
	CacheSize          int
	// CachePolicy selects the eviction policy for every resolver cache in
	// the environment (zero value = LRU, the paper's policy).
	CachePolicy cache.PolicyKind
	// QueryLog, when non-nil, attaches the query-level event log to the
	// environment's cluster and day runner (see internal/qlog). It never
	// changes an experiment's output, only what is observable about it.
	QueryLog *qlog.Log
}

// Small returns the test/bench scale: a few seconds for the full suite.
func Small() Scale {
	return Scale{
		Seed:               1,
		NonDisposableZones: 300,
		DisposableZones:    80,
		HostsPerZoneMax:    48,
		Clients:            500,
		BaseEventsPerDay:   60_000,
		Servers:            2,
		CacheSize:          1 << 15,
	}
}

// Default returns the full scale: the experiment CLI's, and the default of
// every sizing flag below.
func Default() Scale {
	return Scale{
		Seed:               1,
		NonDisposableZones: 900,
		DisposableZones:    398,
		HostsPerZoneMax:    128,
		Clients:            5000,
		BaseEventsPerDay:   200_000,
		Servers:            4,
		CacheSize:          1 << 16,
	}
}

// The sizing flags come in groups so each CLI registers exactly the part
// of the world it builds; defaults are the receiver's current values. A
// trace replay must pass the namespace and traffic values its recording
// was generated with, so the rebuilt authority answers the trace's names
// and walks the same per-day states.

// RegisterNamespaceFlags adds -seed, -zones, -disposable-zones and
// -hosts-per-zone.
func (s *Scale) RegisterNamespaceFlags(fs *flag.FlagSet) {
	fs.Int64Var(&s.Seed, "seed", s.Seed, "namespace and traffic seed")
	fs.IntVar(&s.NonDisposableZones, "zones", s.NonDisposableZones, "non-disposable zone count")
	fs.IntVar(&s.DisposableZones, "disposable-zones", s.DisposableZones, "disposable zone count")
	fs.IntVar(&s.HostsPerZoneMax, "hosts-per-zone", s.HostsPerZoneMax, "maximum host pool per non-disposable zone")
}

// RegisterTrafficFlags adds -events and -clients.
func (s *Scale) RegisterTrafficFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.BaseEventsPerDay, "events", s.BaseEventsPerDay, "base events per day before the profile's volume scale")
	fs.IntVar(&s.Clients, "clients", s.Clients, "client population")
}

// RegisterClusterFlags adds -servers and -cache plus the cache flags.
func (s *Scale) RegisterClusterFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.Servers, "servers", s.Servers, "RDNS servers per cluster")
	fs.IntVar(&s.CacheSize, "cache", s.CacheSize, "per-server cache entries")
	s.RegisterCacheFlags(fs)
}

// RegisterCacheFlags adds -cache-policy, for CLIs whose cluster size is
// fixed elsewhere (-scale).
func (s *Scale) RegisterCacheFlags(fs *flag.FlagSet) {
	fs.TextVar(&s.CachePolicy, "cache-policy", s.CachePolicy, "cache eviction `policy`: lru or sieve")
}
