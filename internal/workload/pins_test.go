package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// The digests below were captured at the commit before the name grammars
// moved from []string labels to append-style builders. They pin the order
// of rng draws and every byte of every generated name, so a reordered draw
// fails here and not only in the benchmark's output digest.

func pinRegistry() *Registry {
	return NewRegistry(RegistryConfig{Seed: 11, NonDisposableZones: 60, DisposableZones: 25, HostsPerZoneMax: 24})
}

func TestNextNamePins(t *testing.T) {
	r := pinRegistry()
	zones := map[Kind]*ZoneSpec{KindNonDisposable: r.NonDisposable[0], KindCDN: r.CDN[0]}
	for _, z := range r.Disposable[:len(flagships)] {
		zones[z.Kind] = z
	}
	want := map[Kind]uint64{
		KindNonDisposable: 0x3b9426ec7e869803,
		KindCDN:           0x5339d82d8433969a,
		KindTelemetry:     0x74c4cfc309167b44,
		KindReputation:    0xed54ae0cef2b9695,
		KindMeasurement:   0x4690742a33c3e9ba,
		KindDNSBL:         0xb545b86fca86a8aa,
		KindTracking:      0x82d8871bf46538cf,
	}
	for kind := KindNonDisposable; kind <= KindTracking; kind++ {
		z := zones[kind]
		if z == nil {
			t.Fatalf("no %v zone in the pin registry", kind)
		}
		rng := rand.New(rand.NewSource(int64(kind)))
		h := fnv.New64a()
		for i := 0; i < 20_000; i++ {
			name, qtype := z.NextName(rng)
			h.Write([]byte(name))
			h.Write([]byte{0, byte(qtype >> 8), byte(qtype)})
		}
		if got := h.Sum64(); got != want[kind] {
			t.Errorf("%v (%s): digest of 20 000 NextName draws = %#016x, want %#016x", kind, z.Zone, got, want[kind])
		}
	}
}

func TestDayStreamPins(t *testing.T) {
	feb := FebruaryProfile(time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC))
	feb.DisposableFrac = 0.30
	dec := DecemberProfile(time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC))
	gen := NewGenerator(pinRegistry(), GeneratorConfig{Seed: 12, Clients: 500, BaseEventsPerDay: 20_000})
	// One generator walks both days, as a multi-day run does: the second
	// digest also covers what the first day left in the repeat rings and
	// the NX pool.
	for _, day := range []struct {
		name string
		p    Profile
		want uint64
	}{
		{"february-30pct-disposable", feb, 0xb446e88706d5a282},
		{"december", dec, 0x07a2d2b6984d3d21},
	} {
		h := fnv.New64a()
		n := 0
		var word [8]byte
		s := gen.StartDay(day.p)
		for q, ok := s.Next(); ok; q, ok = s.Next() {
			binary.BigEndian.PutUint64(word[:], uint64(q.Time.UnixNano()))
			h.Write(word[:])
			binary.BigEndian.PutUint32(word[:4], q.ClientID)
			h.Write(word[:4])
			h.Write([]byte(q.Name))
			h.Write([]byte{0, byte(q.Type >> 8), byte(q.Type), byte(q.Category)})
			n++
		}
		if got := h.Sum64(); got != day.want {
			t.Errorf("%s: digest of %d queries = %#016x, want %#016x", day.name, n, got, day.want)
		}
	}
}

// TestNextNameAllocs: a pool zone hands out names it already holds, and a
// disposable zone pays for the fresh name's string and nothing else (fmt,
// a []string of labels and strings.Join cost five to ten). AllocsPerRun
// rounds down, so the count is taken over a batch of draws.
func TestNextNameAllocs(t *testing.T) {
	r := pinRegistry()
	zones := []*ZoneSpec{r.NonDisposable[0], r.NonDisposable[1], r.CDN[0]}
	zones = append(zones, r.Disposable[:len(flagships)]...)
	const batch = 1000
	for _, z := range zones {
		rng := rand.New(rand.NewSource(1))
		limit := 0.0
		if z.Disposable() {
			limit = batch
		}
		allocs := testing.AllocsPerRun(5, func() {
			for i := 0; i < batch; i++ {
				z.NextName(rng)
			}
		})
		if allocs > limit {
			t.Errorf("%v (%s): %d NextName draws allocated %.0f times, want <= %.0f", z.Kind, z.Zone, batch, allocs, limit)
		}
	}
}
