package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// sampleEvery is the per-query span sampling rate: a span costs two clock
// reads and a locked append, which on every query would be the workload.
const sampleEvery = 64

// span is one timed interval at a layer boundary. Parent is the span that
// caused it (0 for none); ids are positions in the span list, from 1.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer records spans in memory from the benchmark's own wrappers around
// the calls into each layer, and writes them out when the run ends. The
// span list is mutex-guarded because the parallel workloads call sinks and
// the upstream from the resolver's worker goroutines. A nil tracer is the
// end-to-end run: every method is a no-op and no wrapper is installed.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span

	// round is the open round span. query is the open resolve span of the
	// sampled query a sequential runner is working on, 0 between samples.
	round atomic.Int32
	query atomic.Int32
	// querySpan is the query span around query's resolve span; only the
	// runner's goroutine touches it.
	querySpan int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span that close will end.
func (t *tracer) open(name string, parent int32, start time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.epoch))})
	return id
}

func (t *tracer) close(id int32, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent int32, start, end time.Time) {
	t.close(t.open(name, parent, start), end)
}

// timed runs fn, a hook on the runner's goroutine, inside a span under the
// current round.
func (t *tracer) timed(name string, fn func() error) error {
	t.abandonQuery()
	start := time.Now()
	err := fn()
	t.add(name, t.round.Load(), start, time.Now())
	return err
}

func (t *tracer) openRound() {
	if t != nil {
		t.round.Store(t.open("round", 0, time.Now()))
	}
}

func (t *tracer) closeRound() {
	if t != nil {
		t.abandonQuery()
		t.close(t.round.Load(), time.Now())
	}
}

// byName returns the finished spans called name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// meanNs returns the mean duration of the spans called name, in
// nanoseconds, and how many there were.
func (t *tracer) meanNs(name string) (mean float64, n int) {
	spans := t.byName(name)
	if len(spans) == 0 {
		return 0, 0
	}
	var total float64
	for _, s := range spans {
		total += s.dur()
	}
	return total / float64(len(spans)), len(spans)
}

// durationsMs returns the durations of the spans called name, in
// milliseconds.
func (t *tracer) durationsMs(name string) []float64 {
	spans := t.byName(name)
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() / 1e6
	}
	return out
}

// childTime returns, for every parent id, the total duration of its child
// spans whose name passes keep. A layer's self time is its span's duration
// minus this.
func (t *tracer) childTime(keep func(name string) bool) map[int32]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int32]float64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End != 0 && keep(s.Name) {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// writeFile writes the span list as one JSON document.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	err = json.NewEncoder(w).Encode(struct {
		SampleEvery int    `json:"per_query_sample_every"`
		Spans       []span `json:"spans"`
	}{sampleEvery, t.spans})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
