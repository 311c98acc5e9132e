package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// RuntimeStats captures the Go runtime's end-of-run vitals.
type RuntimeStats struct {
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Goroutines   int     `json:"goroutines"`
	HeapBytes    uint64  `json:"heap_bytes"`
	TotalAlloc   uint64  `json:"total_alloc_bytes"`
	GCCycles     uint32  `json:"gc_cycles"`
	GCPauseTotal float64 `json:"gc_pause_total_seconds"`
}

// ReadRuntimeStats samples the runtime now.
func ReadRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Goroutines:   runtime.NumGoroutine(),
		HeapBytes:    ms.HeapAlloc,
		TotalAlloc:   ms.TotalAlloc,
		GCCycles:     ms.NumGC,
		GCPauseTotal: time.Duration(ms.PauseTotalNs).Seconds(),
	}
}

// RunReport is the machine-readable end-of-run record: the final metric
// snapshot, the span tree of every timed stage, and the runtime state —
// the schema of every CLI's -report file, so successive runs compare
// field-for-field.
type RunReport struct {
	Command         string       `json:"command"`
	Args            []string     `json:"args,omitempty"`
	Start           time.Time    `json:"start"`
	End             time.Time    `json:"end"`
	DurationSeconds float64      `json:"duration_seconds"`
	Metrics         *Snapshot    `json:"metrics,omitempty"`
	Spans           []*SpanNode  `json:"spans,omitempty"`
	Runtime         RuntimeStats `json:"runtime"`
}

// NewRunReport starts a report's clock. Call Finish when the run ends.
func NewRunReport(command string, args []string) *RunReport {
	return &RunReport{Command: command, Args: args, Start: time.Now()}
}

// Finish stamps the end time and folds in the registry's final snapshot
// and the tracer's span tree (either may be nil).
func (rep *RunReport) Finish(r *Registry, t *Tracer) *RunReport {
	rep.End = time.Now()
	rep.DurationSeconds = rep.End.Sub(rep.Start).Seconds()
	rep.Metrics = r.Snapshot()
	rep.Spans = t.Roots()
	rep.Runtime = ReadRuntimeStats()
	return rep
}

// WriteFile serializes the report as indented JSON to path ("-" for
// stdout).
func (rep *RunReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encode report: %w", err)
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: write report: %w", err)
	}
	return nil
}
