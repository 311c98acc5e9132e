package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dnsnoise/internal/ingest"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/traceio"
	"dnsnoise/internal/workload"
)

// replay-disposable uses the same resolver the other way round: a trace
// recorded from the one-second-TTL era with the disposable share raised to
// 30 %, replayed sequentially (as dnsnoise-mine -trace does) through a
// cache too small for it. Misses, evictions and wheel reclaims stand where
// sim-day has reads; trace decoding, the wire exchange with the authority
// and the per-day registry re-walk of ReplayProfiles dominate; and a
// change that buys parallel speed at sequential cost shows here.

var february = time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC)

// replayProfile is the recording's calibration for any date.
func replayProfile(date time.Time) workload.Profile {
	p := workload.FebruaryProfile(date)
	p.DisposableFrac = 0.30
	return p
}

// replayDays is the length of the recording the workload loops over.
const replayDays = 4

func replaySpec(smoke bool) simSpec {
	spec := simSpec{
		zones: 900, dispZones: 398, hosts: 128,
		clients: 5000, events: 50_000,
		profile: replayProfile, start: february,
		cacheSize: 1 << 8, parallel: false,
	}
	if smoke {
		spec.zones, spec.dispZones, spec.hosts = 60, 20, 24
		spec.clients, spec.events = 200, 2000
	}
	return spec
}

type replay struct {
	*simFixture
	dir   string
	paths []string
}

func setupReplay(cfg config, tr *tracer) (instance, error) {
	spec := replaySpec(cfg.smoke)
	w := &replay{}
	// The recording comes from a namespace of its own: generating a day
	// mutates the registry, and the replay below must start from a fresh
	// one, as a replay in another process would.
	rec, err := newSimFixture(spec, cfg, nil)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if w.dir, err = os.MkdirTemp(cfg.outDir, "replay-"); err != nil {
		return nil, err
	}
	for d, p := range rec.profiles(replayDays) {
		path := filepath.Join(w.dir, fmt.Sprintf("day-%d.jsonl", d))
		if err := writeTraceDay(path, rec.gen, p); err != nil {
			w.close()
			return nil, err
		}
		w.paths = append(w.paths, path)
	}

	if w.simFixture, err = newSimFixture(spec, cfg, tr); err != nil {
		w.close()
		return nil, err
	}
	w.setSource(&loopTrace{paths: w.paths, period: replayDays * 24 * time.Hour})
	w.base = []ingest.Option{ingest.OnDayStart(
		wrapHook(tr, "daystart", ingest.ReplayProfiles(w.gen, replayProfile)))}
	if _, err := w.warm(nil); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// writeTraceDay records one generated day as a trace file.
func writeTraceDay(path string, gen *workload.Generator, p workload.Profile) error {
	tw, done, err := traceio.CreatePath(path)
	if err != nil {
		return err
	}
	if _, err := ingest.Pump(ingest.NewGeneratorSource(gen, p), tw); err != nil {
		done()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return done()
}

func (w *replay) verify(m *meter) (int, uint64) { return w.simFixture.verify(m, nil) }

func (w *replay) close() error {
	var err error
	if w.simFixture != nil {
		err = w.simFixture.close()
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *replay) layers(out map[string]float64) error {
	if err := w.simFixture.layers(out); err != nil {
		return err
	}
	if ms := w.tr.durationsMs("daystart"); len(ms) > 0 {
		out["ingest.daystart_ms"] = median(ms)
	}
	w.logBudget(out)
	return w.tracePasses(out)
}

// logBudget prints how much of the traced run's wall time per query the
// per-query layer costs add up to. The workload is sequential, so the
// steps add; what is left over is the per-day work (the daystart hook, the
// window rotation) and the tracer itself.
func (w *replay) logBudget(out map[string]float64) {
	var wall float64
	for _, s := range w.tr.byName("round") {
		wall += s.dur()
	}
	wall /= float64(w.tracedQueries)
	hit := out["resolver.hit_ratio"]
	sum := out["ingest.source_ns"] + hit*out["resolver.hit_ns"] + (1-hit)*out["resolver.miss_ns"] + out["ingest.sink_ns"]
	fmt.Fprintf(w.log, "replay-disposable budget: source %.0f + %.3f x hit %.0f + %.3f x miss %.0f + sink %.0f = %.0f ns of %.0f ns wall per query (%.1f%%)\n",
		out["ingest.source_ns"], hit, out["resolver.hit_ns"], 1-hit, out["resolver.miss_ns"], out["ingest.sink_ns"], sum, wall, 100*sum/wall)
}

// tracePasses reads the recording's first day back and writes it again.
func (w *replay) tracePasses(out map[string]float64) error {
	var sample []resolver.Query
	var passErr error
	out["traceio.read_ns"] = w.tr.pass("pass.traceio.read", w.spec.events, func() {
		sample, passErr = readTraceDay(w.paths[0])
	})
	if passErr != nil {
		return passErr
	}
	path := filepath.Join(w.dir, "rewrite.jsonl")
	out["traceio.write_ns"] = w.tr.pass("pass.traceio.write", len(sample), func() {
		passErr = writeTrace(path, sample)
	})
	if passErr != nil {
		return passErr
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	out["traceio.bytes_per_event"] = float64(info.Size()) / float64(len(sample))
	return nil
}

// readTraceDay decodes one trace file into queries, the way
// ingest.TraceSource does.
func readTraceDay(path string) ([]resolver.Query, error) {
	r, done, err := traceio.OpenPath(path)
	if err != nil {
		return nil, err
	}
	defer done()
	var out []resolver.Query
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", path, err)
		}
		q, err := ev.ToQuery()
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", path, err)
		}
		out = append(out, q)
	}
}

func writeTrace(path string, queries []resolver.Query) error {
	tw, done, err := traceio.CreatePath(path)
	if err != nil {
		return err
	}
	for _, q := range queries {
		if err := tw.Consume(q); err != nil {
			done()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return done()
}
