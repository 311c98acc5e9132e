package sim

import (
	"flag"
	"fmt"
	"log/slog"
	"time"

	"dnsnoise/internal/ingest"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/alerts"
)

// Obs is the observability bundle of the simulation CLIs, flags and
// running state: telemetry (-metrics-addr, -progress, -report), the query
// log on top of it (-qlog, -qlog-sample, -qlog-mem) and continuous
// telemetry on top of both (-tsdb-interval, -tsdb-retain, -alert-rules).
// All of it is opt-in; with none set every instrument downstream is a nil
// no-op and stdout is byte-identical. Once started, the embedded session
// provides Registry, Tracer, Logger and StartProgress.
type Obs struct {
	Telemetry telemetry.CLIConfig
	Qlog      qlog.CLIConfig
	Alerts    alerts.CLIConfig

	*telemetry.Session
	qlog   *qlog.CLISession
	alerts *alerts.CLISession
}

// RegisterFlags adds the three flag sets to fs.
func (o *Obs) RegisterFlags(fs *flag.FlagSet) {
	o.Telemetry.RegisterFlags(fs)
	o.Qlog.RegisterFlags(fs)
	o.Alerts.RegisterFlags(fs)
}

// Start brings the three layers up in dependency order from the parsed
// flags. Defer Close for error paths and also return it at the end of a
// successful run, to surface flush and report-write errors.
func (o *Obs) Start(command string, args []string) (err error) {
	if o.Session, err = o.Telemetry.Start(command, args); err != nil {
		return err
	}
	if o.qlog, err = o.Qlog.Start(o.Session); err == nil {
		o.alerts, err = o.Alerts.Start(o.Session, o.Log())
	}
	if err != nil {
		o.Close()
	}
	return err
}

// Log returns the query log (nil when disabled).
func (o *Obs) Log() *qlog.Log { return o.qlog.Log() }

// ResolverOptions attaches a cluster's counters and event recorders.
func (o *Obs) ResolverOptions() []resolver.Option {
	return []resolver.Option{resolver.WithTelemetry(o.Registry), resolver.WithQueryLog(o.Log())}
}

// IngestOptions attaches a run's day stamps, counters, per-day spans and
// per-day progress lines.
func (o *Obs) IngestOptions() []ingest.Option {
	return []ingest.Option{
		ingest.WithQueryLog(o.Log()),
		ingest.WithMetrics(o.Registry),
		ingest.WithTracer(o.Tracer),
		ingest.WithProgress(o.Logger),
	}
}

// Close shuts the layers down in reverse: the tsdb sweeper stops first,
// because its final sweep may still mirror an alert transition into the
// query log; then the query log flushes and closes; then the telemetry
// session writes the run report and stops the endpoint. The query log
// needs quiesced recorders, so join whatever is still resolving (a serve
// loop) before calling. Idempotent; returns the first error.
func (o *Obs) Close() error {
	o.alerts.Close()
	err := o.qlog.Close()
	if err != nil {
		err = fmt.Errorf("qlog: %w", err)
	}
	if serr := o.Session.Close(); err == nil {
		err = serr
	}
	return err
}

// ClusterProgress returns the per-tick attributes for a simulation's
// -progress line: cumulative queries, qps since the last tick, and the
// cache hit ratio so far. It runs on the progress goroutine only, so the
// last-tick state needs no locking.
func ClusterProgress(cluster *resolver.Cluster) telemetry.ProgressFunc {
	var (
		lastQueries uint64
		lastElapsed time.Duration
	)
	return func(elapsed time.Duration) []slog.Attr {
		st := cluster.Stats()
		dq := st.Queries - lastQueries
		dt := (elapsed - lastElapsed).Seconds()
		lastQueries, lastElapsed = st.Queries, elapsed
		attrs := []slog.Attr{slog.Uint64("queries", st.Queries)}
		if dt > 0 {
			attrs = append(attrs, slog.Float64("qps", float64(dq)/dt))
		}
		if st.Queries > 0 {
			attrs = append(attrs, slog.Float64("chr", float64(st.CacheHits)/float64(st.Queries)))
		}
		return attrs
	}
}
