package tsdb_test

import (
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/tsdb"
)

// TestResolvePathZeroAllocWithTsdb proves the tentpole's cost contract: a
// fully wired tsdb (registry-instrumented cluster, DB, sweeps recording
// history) adds zero allocations to the cache-hit resolve path. All tsdb
// work happens inside Record/Sweep — here invoked between measurement runs
// because testing.AllocsPerRun counts process-wide mallocs, so the sweep's
// own (permitted) allocations must not pollute the hot-path measurement.
func TestResolvePathZeroAllocWithTsdb(t *testing.T) {
	up := authority.NewServer()
	z, err := authority.NewZone("alloc.test", authority.WithSynth(
		func(_ []byte, qtype dnsmsg.Type, dst []dnsmsg.RR) ([]dnsmsg.RR, bool) {
			return append(dst, dnsmsg.RR{Type: qtype, Class: dnsmsg.ClassIN, TTL: 3600, RData: dnsmsg.IPv4(198, 18, 0, 1)}), true
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c, err := resolver.NewCluster(up, resolver.WithServers(2), resolver.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}

	db := tsdb.New(tsdb.Config{Retain: 64})
	sw := tsdb.NewSweeper(db, time.Hour, reg.Snapshot)

	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	q := resolver.Query{Time: t0, ClientID: 7, Name: "host1.alloc.test", Type: dnsmsg.TypeA}
	if _, err := c.Resolve(q); err != nil { // warm: miss fills the cache
		t.Fatal(err)
	}
	q.Time = t0.Add(time.Second)

	for round := 0; round < 3; round++ {
		sw.Sweep() // history accrues between rounds, never during them
		allocs := testing.AllocsPerRun(200, func() {
			resp, err := c.Resolve(q)
			if err != nil || !resp.FromCache {
				t.Fatal("expected cache hit", err)
			}
		})
		if allocs != 0 {
			t.Fatalf("round %d: cache-hit Resolve allocated %.1f times per op with tsdb attached, want 0", round, allocs)
		}
	}
	if db.Sweeps() != 3 {
		t.Fatalf("sweeps = %d, want 3", db.Sweeps())
	}
	if res := db.Query("resolver_queries_total", tsdb.AggMax, tsdb.Options{
		Start: time.Now().Add(-time.Minute), End: time.Now().Add(time.Minute), Step: 2 * time.Minute,
	}); len(res) == 0 {
		t.Fatal("no resolver_queries_total history recorded")
	}
}
