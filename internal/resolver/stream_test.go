package resolver

import (
	"sync/atomic"
	"testing"
	"time"

	"dnsnoise/internal/dnsmsg"
)

// TestStreamBarrierRotatesTaps drives two windows of queries through one
// Stream, swapping the below tap at the Barrier between them. Every
// observation of window 1 must land in the first tap and every observation
// of window 2 in the second: the barrier guarantees no in-flight stragglers
// cross the rotation point, without tearing down the workers.
func TestStreamBarrierRotatesTaps(t *testing.T) {
	c, err := NewCluster(synthUpstream(t), WithServers(3), WithCacheSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	var win1, win2 atomic.Uint64
	c.SetTaps(TapFunc(func(Observation) { win1.Add(1) }), nil)

	st := c.StartStream()
	const perWindow = 500
	mk := func(i int) Query {
		return Query{
			Time:     t0.Add(time.Duration(i) * time.Second),
			ClientID: uint32(i % 57),
			Name:     "h.synth.test",
			Type:     dnsmsg.TypeA,
		}
	}
	for i := 0; i < perWindow; i++ {
		st.Submit(mk(i))
	}
	if err := st.Barrier(); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	got1 := win1.Load()
	if got1 != perWindow {
		t.Errorf("window 1 tap saw %d observations, want %d", got1, perWindow)
	}
	// All workers are idle: rotating taps is safe mid-stream.
	c.SetTaps(TapFunc(func(Observation) { win2.Add(1) }), nil)
	for i := 0; i < perWindow; i++ {
		st.Submit(mk(perWindow + i))
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if win1.Load() != perWindow {
		t.Errorf("window 1 tap grew after rotation: %d", win1.Load())
	}
	if win2.Load() != perWindow {
		t.Errorf("window 2 tap saw %d observations, want %d", win2.Load(), perWindow)
	}
	if st.Close() != nil { // idempotent
		t.Error("second Close should return nil on a clean stream")
	}
}

// TestStreamSubmitFromChannel feeds a Stream from a concurrent producer: the
// caller drains a channel and submits, and every query must be resolved.
func TestStreamSubmitFromChannel(t *testing.T) {
	c, err := NewCluster(synthUpstream(t), WithServers(3))
	if err != nil {
		t.Fatal(err)
	}
	qs := mixedQueries(5_000)
	ch := make(chan Query, 256)
	go func() {
		defer close(ch)
		for _, q := range qs {
			ch <- q
		}
	}()
	st := c.StartStream()
	for q := range ch {
		st.Submit(q)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Queries; got != uint64(len(qs)) {
		t.Errorf("Queries = %d, want %d", got, len(qs))
	}
}

// TestStreamRecyclesBatches: the router's 64-query batches come back from the
// workers, so a stream in steady state allocates for its barriers and not per
// hand-off (300 hand-offs per run here; how many slices circulate depends on
// how far the router gets ahead, hence the loose bound).
func TestStreamRecyclesBatches(t *testing.T) {
	c, err := NewCluster(synthUpstream(t), WithServers(3), WithCacheSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	st := c.StartStream()
	defer st.Close()
	q := Query{Time: t0, Name: "h.synth.test", Type: dnsmsg.TypeA}
	const handOffs = 300
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < handOffs*streamBatchSize; i++ {
			q.ClientID = uint32(i % 57)
			st.Submit(q)
		}
		if err := st.Barrier(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > handOffs/6 {
		t.Errorf("%d batch hand-offs allocated %.0f times, want a handful", handOffs, allocs)
	}
}

// TestStreamMatchesSequential verifies that a Stream with interleaved
// barriers leaves the cluster in the same state as sequential Resolve calls
// over the same query sequence.
func TestStreamMatchesSequential(t *testing.T) {
	queries := make([]Query, 0, 900)
	for i := 0; i < 900; i++ {
		name := "h.synth.test"
		if i%3 == 0 {
			name = "cold.synth.test"
		}
		queries = append(queries, Query{
			Time:     t0.Add(time.Duration(i) * time.Second),
			ClientID: uint32(i % 101),
			Name:     name,
			Type:     dnsmsg.TypeA,
		})
	}

	seq, err := NewCluster(synthUpstream(t), WithServers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := seq.Resolve(q); err != nil {
			t.Fatal(err)
		}
	}

	par, err := NewCluster(synthUpstream(t), WithServers(2))
	if err != nil {
		t.Fatal(err)
	}
	st := par.StartStream()
	for i, q := range queries {
		st.Submit(q)
		if i%250 == 249 {
			if err := st.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	a, b := seq.Stats(), par.Stats()
	if a != b {
		t.Errorf("cluster stats differ:\nseq: %+v\npar: %+v", a, b)
	}
}
