package ingest

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/resolver"
	"dnsnoise/internal/traceio"
)

// traceLines returns n canonical trace lines of resolvable queries, a
// second apart from the stamp of line first.
func traceLines(first, n int) string {
	t0 := time.Date(2011, 12, 1, 0, 0, 0, 0, time.UTC)
	var b strings.Builder
	for i := first; i < first+n; i++ {
		fmt.Fprintf(&b, `{"ts":"%s","client":%d,"name":"www.google.com","type":"A","disposable":false}`+"\n",
			t0.Add(time.Duration(i)*time.Second).Format(time.RFC3339Nano), i%50)
	}
	return b.String()
}

// TestTraceErrorsKeepTheirPlace puts the line or file that ends a replay
// past the first batch and into the second file: Run resolves exactly the
// queries before it and reports the same error a sequential read does.
func TestTraceErrorsKeepTheirPlace(t *testing.T) {
	bad := `{"ts":"2011-12-01T12:00:00Z","client":2,"name":"www..example.com","type":"A","disposable":false}` + "\n"
	first := traceBatchLen + 40 // file 1's length: past a batch, not a multiple of one
	for _, tc := range []struct {
		name     string
		files    []string // the trace files' contents, in order
		missing  bool     // a path to no file follows them
		resolved int
		wantErr  func(paths []string) string
	}{
		{
			name:     "bad line past the first batch",
			files:    []string{traceLines(0, first) + bad + traceLines(first, 5)},
			resolved: first,
			wantErr: func(paths []string) string {
				return fmt.Sprintf("ingest: trace %s: traceio: malformed event: line %d", paths[0], first+1)
			},
		},
		{
			name:     "bad line in the second file",
			files:    []string{traceLines(0, first), traceLines(first, 5) + bad + traceLines(first+5, 5)},
			resolved: first + 5,
			wantErr: func(paths []string) string {
				return fmt.Sprintf("ingest: trace %s: traceio: malformed event: line 6", paths[1])
			},
		},
		{
			name:     "missing second file",
			files:    []string{traceLines(0, first)},
			missing:  true,
			resolved: first,
			wantErr: func(paths []string) string {
				return "ingest: open trace: open " + paths[1] + ":"
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var paths []string
			for i, content := range tc.files {
				path := filepath.Join(dir, fmt.Sprintf("day%d.jsonl", i+1))
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
				paths = append(paths, path)
			}
			if tc.missing {
				paths = append(paths, filepath.Join(dir, "missing.jsonl"))
			}
			c := newTestEnv(t).cluster(t)
			src := NewTraceSource(paths...)
			defer src.Close()
			err := NewRunner(c).Run(src)
			if err == nil {
				t.Fatal("Run succeeded over a broken trace")
			}
			cause := traceio.ErrBadEvent
			if tc.missing {
				cause = fs.ErrNotExist
			}
			if !errors.Is(err, cause) {
				t.Errorf("Run = %v, want %v", err, cause)
			}
			if want := tc.wantErr(paths); !strings.HasPrefix(err.Error(), want) {
				t.Errorf("Run = %q, want it to start %q", err, want)
			}
			if got := c.Stats().Queries; got != uint64(tc.resolved) {
				t.Errorf("resolved %d queries, want the %d before the failure", got, tc.resolved)
			}
		})
	}
}

var benchQuery resolver.Query

// BenchmarkTraceSource measures the replay's source side per query: a
// generated day's trace decoded on the source's goroutine and taken from
// its batches by Next, re-opened at the end. At -cpu 1 the decode and the
// handoff share the one processor.
func BenchmarkTraceSource(b *testing.B) {
	path := recordTrace(b, "trace.jsonl", 1)
	src := NewTraceSource(path)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := src.Next()
		if err == io.EOF {
			src = NewTraceSource(path)
			q, err = src.Next()
		}
		if err != nil {
			b.Fatal(err)
		}
		benchQuery = q
	}
	b.StopTimer()
	src.Close()
}
