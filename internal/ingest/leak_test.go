package ingest

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/resolver"
)

// TestParallelRunnerNoLeakOnResolveError drives the parallel runner into
// a mid-stream resolution failure (a CNAME loop, the one error upstream
// transport degradation cannot mask) and checks that the run aborts with
// the error and leaves no worker goroutine behind. This is the regression
// guard for the pre-ingest bug where a producer goroutine could block
// forever feeding a stream that had already returned.
func TestParallelRunnerNoLeakOnResolveError(t *testing.T) {
	up := authority.NewServer()
	z, err := authority.NewZone("loop.test")
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range []dnsmsg.RR{
		{Name: "a.loop.test", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.Text("b.loop.test")},
		{Name: "b.loop.test", Type: dnsmsg.TypeCNAME, Class: dnsmsg.ClassIN, TTL: 60, RData: dnsmsg.Text("a.loop.test")},
	} {
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.AddZone(z); err != nil {
		t.Fatal(err)
	}
	c, err := resolver.NewCluster(up, resolver.WithServers(4))
	if err != nil {
		t.Fatal(err)
	}

	// Enough queries past the first failure to force the early-exit path
	// (the runner checks the stream's error once per errCheckInterval).
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	qs := make([]resolver.Query, 4*errCheckInterval)
	for i := range qs {
		qs[i] = resolver.Query{
			Time:     t0.Add(time.Duration(i) * time.Second),
			ClientID: uint32(i),
			Name:     "a.loop.test",
			Type:     dnsmsg.TypeA,
		}
	}

	before := runtime.NumGoroutine()
	r := NewRunner(c, WithParallel(), WithSingleWindow())
	if err := r.Run(&sliceSource{qs: qs}); !errors.Is(err, resolver.ErrChainLoop) {
		t.Fatalf("Run = %v, want ErrChainLoop", err)
	}

	// The workers must have been joined by the time Run returns.
	expectGoroutines(t, before)
}

// TestRunnerSubmitAfterError pushes queries into a runner whose tick hook
// fails: Submit returns the hook's error and keeps returning it without
// resolving anything more, Pause and Close return it too, Close emits no
// window, and no worker outlives Close.
func TestRunnerSubmitAfterError(t *testing.T) {
	errTick := errors.New("tick hook down")
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			env := newTestEnv(t)
			c := env.cluster(t)
			qs := drain(t, NewGeneratorSource(env.gen, testProfiles(1)...))
			// The first query opens the day; the first past the day's first
			// hour crosses a tick.
			first, late := qs[0], 0
			for qs[late].Time.Before(first.Time.Truncate(time.Hour).Add(time.Hour)) {
				late++
			}
			windows := 0
			before := runtime.NumGoroutine()
			r := NewRunner(c, append(m.opts,
				WithWindowTicks(time.Hour, func(Tick) error { return errTick }),
				OnWindow(func(Window) error { windows++; return nil }))...)
			if err := r.Submit(first); err != nil {
				t.Fatalf("first Submit = %v", err)
			}
			for i, q := range []resolver.Query{qs[late], first, qs[late]} {
				if err := r.Submit(q); err != errTick {
					t.Fatalf("Submit %d after the tick = %v, want the hook's error", i, err)
				}
			}
			if err := r.Pause(); err != errTick {
				t.Errorf("Pause = %v, want the hook's error", err)
			}
			for i := 0; i < 2; i++ {
				if err := r.Close(); err != errTick {
					t.Errorf("Close %d = %v, want the hook's error", i, err)
				}
			}
			if windows != 0 {
				t.Errorf("Close after an error emitted %d windows", windows)
			}
			if got := c.Stats().Queries; got != 1 {
				t.Errorf("resolved %d queries, want only the one before the tick", got)
			}
			expectGoroutines(t, before)
		})
	}
}

// TestTraceSourceCloseMidStream closes a source whose decoder is ahead of
// Next and waiting to hand over a batch: Close returns at once, the
// decoder exits, and Next reports io.EOF.
func TestTraceSourceCloseMidStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(traceLines(0, 4*traceBatchLen)), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	src := NewTraceSource(path)
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	expectGoroutines(t, before)
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("Next after Close = %v, want io.EOF", err)
	}
}

// TestTraceSourceCloseDuringRead closes a stdin source whose decoder is
// blocked reading a pipe that is still open for writing: Close does not
// wait for the read, and the decoder exits once the read returns.
func TestTraceSourceCloseDuringRead(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	stdin := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = stdin }()
	// One full batch, so the first Next returns while the decoder waits
	// for the line after it.
	if _, err := io.WriteString(w, traceLines(0, traceBatchLen)); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	src := NewTraceSource("-")
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if runtime.NumGoroutine() <= before {
		t.Fatal("decoder gone before its read returned: the read did not block")
	}
	if _, err := io.WriteString(w, traceLines(traceBatchLen, 1)); err != nil {
		t.Fatal(err)
	}
	expectGoroutines(t, before)
}

// TestTraceSourceDrainedNeedsNoClose drops sources without Close once Next
// has reported the end of their stream, io.EOF or an error: their decoders
// have exited.
func TestTraceSourceDrainedNeedsNoClose(t *testing.T) {
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.jsonl"), filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(good, []byte(traceLines(0, 2*traceBatchLen+1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(traceLines(0, traceBatchLen+1)+"{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, paths := range [][]string{{good}, {good, bad}, {good, filepath.Join(dir, "missing.jsonl")}} {
		src := NewTraceSource(paths...)
		var err error
		for err == nil {
			_, err = src.Next()
		}
		if (len(paths) == 1) != (err == io.EOF) {
			t.Errorf("%v ends with %v", paths, err)
		}
	}
	expectGoroutines(t, before)
}

// expectGoroutines allows the runtime a moment to retire exited goroutines
// before judging the count against the one taken before the run.
func expectGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before run, %d after — leak", before, runtime.NumGoroutine())
}

// benignClassifier finds nothing disposable.
type benignClassifier struct{}

func (benignClassifier) Fit([][]float64, []bool) error          { return nil }
func (benignClassifier) PredictProb([]float64) (float64, error) { return 0, nil }

// TestStreamingRunNoLeakOnTickError fails a tick hook right after its
// Rescore: the run aborts while that window is still being mined on the
// pipeline's goroutine, which nobody will join. It must end by itself.
func TestStreamingRunNoLeakOnTickError(t *testing.T) {
	sp, err := core.NewStreamingPipeline(benignClassifier{}, core.MinerConfig{},
		core.StreamingConfig{NumServers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := newTestEnv(t)
	c := env.cluster(t)
	errTick := errors.New("tick hook down")
	rescored := 0

	before := runtime.NumGoroutine()
	err = NewRunner(c, WithParallel(), WithSinks(sp),
		WithWindowTicks(6*time.Hour, func(tk Tick) error {
			if _, err := sp.Rescore(tk.Day); err != nil {
				return err
			}
			rescored++
			return errTick
		})).Run(NewGeneratorSource(env.gen, testProfiles(1)...))
	if !errors.Is(err, errTick) || rescored != 1 {
		t.Fatalf("Run = %v after %d re-scores, want the tick hook's error after one", err, rescored)
	}
	expectGoroutines(t, before)
}
