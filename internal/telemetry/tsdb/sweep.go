package tsdb

import (
	"sync"
	"time"

	"dnsnoise/internal/telemetry"
)

// Sweeper periodically snapshots a source and records it into a DB, then
// runs any registered hooks (the alert engine hangs off one). It owns a
// single goroutine; the instrumented hot paths never see it — the snapshot
// source is the same read-time scrape path /metrics uses.
type Sweeper struct {
	db    *DB
	src   func() *telemetry.Snapshot
	every time.Duration
	hooks []func(now time.Time)

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// NewSweeper builds a sweeper recording src() into db every interval.
// src returning nil skips that sweep.
func NewSweeper(db *DB, every time.Duration, src func() *telemetry.Snapshot) *Sweeper {
	return &Sweeper{db: db, src: src, every: every}
}

// OnSweep registers fn to run (in the sweep goroutine) after each recorded
// sweep. Must be called before Start.
func (s *Sweeper) OnSweep(fn func(now time.Time)) {
	s.hooks = append(s.hooks, fn)
}

// Sweep performs one snapshot+record+hooks cycle synchronously. Tests and
// CLI teardown use it to get a final consistent sample without waiting a
// full interval.
func (s *Sweeper) Sweep() {
	if s == nil {
		return
	}
	snap := s.src()
	if snap == nil {
		return
	}
	if snap.Time.IsZero() {
		snap.Time = time.Now()
	}
	s.db.Record(snap)
	for _, fn := range s.hooks {
		fn(snap.Time)
	}
}

// Start records a first sweep at once, so that the first tick's rates
// cover the time since Start, then launches the sweep loop. Safe to call
// once; Stop tears it down.
func (s *Sweeper) Start() {
	if s == nil || s.every <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.Sweep()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.Sweep()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the loop and waits for the in-flight sweep, then records one
// final sweep so short runs still leave history behind. Idempotent.
func (s *Sweeper) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	close(s.stop)
	done := s.done
	s.mu.Unlock()
	<-done
	s.Sweep()
}
