package main

import (
	"time"

	"dnsnoise/internal/ingest"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/workload"
)

// sim-day is the paper's measurement path as dnsnoise-exp and
// dnsnoise-pdns run it: consecutive December days generated in-process,
// resolved in parallel through a cache large enough to hold the popular
// names (about two hits in three), every answer tapped into the day's CHR
// collector and a growing passive-DNS store. The generator, the stream
// routing, the taps and the accumulators do most of the work; trace
// parsing and the miner do none.

var december = time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)

func simDaySpec(smoke bool) simSpec {
	spec := simSpec{
		zones: 900, dispZones: 398, hosts: 128,
		clients: 5000, events: 100_000,
		profile: workload.DecemberProfile, start: december,
		cacheSize: 1 << 16, parallel: true,
	}
	if smoke {
		spec.zones, spec.dispZones, spec.hosts = 60, 20, 24
		spec.clients, spec.events = 200, 2000
	}
	return spec
}

type simDay struct {
	*simFixture
	store *pdns.Store
}

func setupSimDay(cfg config, tr *tracer) (instance, error) {
	fx, err := newSimFixture(simDaySpec(cfg.smoke), cfg, tr)
	if err != nil {
		return nil, err
	}
	w := &simDay{simFixture: fx, store: pdns.NewStore()}
	fx.setSource(ingest.NewGeneratorSource(fx.gen, fx.profiles(maxDays)...))
	fx.hooks = []ingest.Option{ingest.WithSinks(
		wrapSink(tr, "sink.pdns", ingest.TapSink(w.store.Tap(), nil)))}
	// The store sees the warm-up day too, as it would in dnsnoise-pdns.
	if _, err := fx.warm(fx.hooks); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *simDay) verify(m *meter) (int, uint64) {
	// days[0] is the warm-up day.
	days := w.store.Days()
	return w.simFixture.verify(m, func(d int) []int {
		if d+1 >= len(days) {
			return nil
		}
		return []int{days[d+1].New, days[d+1].Disposable}
	})
}

func (w *simDay) layers(out map[string]float64) error {
	if err := w.simFixture.layers(out); err != nil {
		return err
	}
	out["pdns.observe_ns"], _ = w.tr.meanNs("sink.pdns")
	out["pdns.records"] = float64(w.store.Len())
	out["pdns.storage_mb"] = float64(w.store.StorageBytes()) / (1 << 20)
	return nil
}
