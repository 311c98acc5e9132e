// Streaming-miner wiring: the option bundle that attaches a
// core.StreamingPipeline to a Runner through the same seams the batch
// pipeline uses — the observation-sink tap for intake, WithWindowTicks for
// intra-day re-scores, and the day-boundary window hook for EndDay. With
// expiry disabled the streaming day-boundary verdicts are DeepEqual to
// the batch miner's over the same stream (the tentpole equivalence
// contract, pinned by the tests in streaming_test.go).

package ingest

import (
	"time"

	"dnsnoise/internal/core"
)

// StreamingHooks returns the runner options that wire a streaming miner
// into a run: the pipeline observes every below/above record, re-scores at
// each `every` interval of simulated time (0 disables intra-day ticks; the
// tick closes the window at the barrier and the mine runs beside the next
// window's queries, its error surfacing at the next tick or boundary),
// and closes its day at every window boundary. The pipeline's
// StreamingConfig.NumServers should match the cluster when running
// parallel. Combine with OnWindow callbacks freely — hooks chain.
func StreamingHooks(sp *core.StreamingPipeline, every time.Duration) []Option {
	return []Option{
		WithSinks(sp),
		WithWindowTicks(every, func(tk Tick) error {
			_, err := sp.Rescore(tk.Day)
			return err
		}),
		OnWindow(func(w Window) error {
			_, err := sp.EndDay(w.Date)
			return err
		}),
	}
}
