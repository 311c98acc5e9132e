package ingest

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/telemetry"
)

// runTelemetryWindows drives days of generated traffic through a runner
// built with opts and returns the emitted windows' query counts.
func runTelemetryWindows(t *testing.T, days int, opts ...Option) []int {
	t.Helper()
	env := newTestEnv(t)
	cl := env.cluster(t)
	var counts []int
	all := append([]Option{
		OnWindow(func(w Window) error {
			counts = append(counts, w.Queries)
			return nil
		}),
		OnDayStart(func(time.Time) error { return nil }),
	}, opts...)
	r := NewRunner(cl, all...)
	if err := r.Run(NewGeneratorSource(env.gen, testProfiles(days)...)); err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestRunnerTelemetry runs a multi-day replay with every telemetry option
// enabled and checks the counters, the span tree shape, and the per-day
// progress lines — then reruns without telemetry and verifies the windows
// are identical, the zero-perturbation contract.
func TestRunnerTelemetry(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			const days = 3
			reg := telemetry.NewRegistry()
			tr := telemetry.NewTracer()
			var logBuf bytes.Buffer
			logger := slog.New(slog.NewTextHandler(&logBuf, nil))

			counts := runTelemetryWindows(t, days, append(m.opts,
				WithMetrics(reg), WithTracer(tr), WithProgress(logger))...)
			if len(counts) != days {
				t.Fatalf("%d windows, want %d", len(counts), days)
			}
			var total uint64
			for _, c := range counts {
				total += uint64(c)
			}

			snap := reg.Snapshot()
			if got := snap.Counter("ingest_queries_total"); got != total {
				t.Errorf("ingest_queries_total = %d, want %d", got, total)
			}
			if got := snap.Counter("ingest_days_total"); got != days {
				t.Errorf("ingest_days_total = %d, want %d", got, days)
			}
			below := snap.Counter(`ingest_observations_total{side="below"}`)
			above := snap.Counter(`ingest_observations_total{side="above"}`)
			if below == 0 || above == 0 {
				t.Errorf("observation counters empty: below=%d above=%d", below, above)
			}

			roots := tr.Roots()
			if len(roots) != days {
				t.Fatalf("%d day spans, want %d", len(roots), days)
			}
			var spanItems int64
			for _, day := range roots {
				if day.Running {
					t.Errorf("day span %s still running", day.Name)
				}
				var names []string
				for _, ch := range day.Children {
					names = append(names, ch.Name)
					if ch.Name == "resolve" {
						spanItems += ch.Items
					}
				}
				want := "prepare resolve collect"
				if got := strings.Join(names, " "); got != want {
					t.Errorf("day %s children = %q, want %q", day.Name, got, want)
				}
			}
			if spanItems != int64(total) {
				t.Errorf("resolve span items = %d, want %d", spanItems, total)
			}

			lines := strings.Count(logBuf.String(), `msg="day complete"`)
			if lines != days {
				t.Errorf("%d progress lines, want %d:\n%s", lines, days, logBuf.String())
			}
			if !strings.Contains(logBuf.String(), "chr=") || !strings.Contains(logBuf.String(), "dhr=") {
				t.Error("progress lines missing chr/dhr attributes")
			}

			// Telemetry must not perturb the measurement.
			plain := runTelemetryWindows(t, days, m.opts...)
			for i := range plain {
				if plain[i] != counts[i] {
					t.Fatalf("window %d: telemetry run saw %d queries, plain run %d",
						i, counts[i], plain[i])
				}
			}
		})
	}
}

// TestRunnerSingleWindowDays checks that day accounting (spans, day
// counter) still rotates per UTC day in single-window mode, where only one
// window is emitted at the end.
func TestRunnerSingleWindowDays(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			const days = 2
			reg := telemetry.NewRegistry()
			tr := telemetry.NewTracer()
			counts := runTelemetryWindows(t, days, append(m.opts, WithSingleWindow(),
				WithMetrics(reg), WithTracer(tr))...)
			if len(counts) != 1 {
				t.Fatalf("%d windows, want 1 in single-window mode", len(counts))
			}
			if got := reg.Snapshot().Counter("ingest_days_total"); got != days {
				t.Errorf("ingest_days_total = %d, want %d", got, days)
			}
			if roots := tr.Roots(); len(roots) != days {
				t.Errorf("%d day spans, want %d", len(roots), days)
			}
		})
	}
}
