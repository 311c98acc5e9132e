package sim

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"dnsnoise/internal/ingest"
	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/alerts"
	"dnsnoise/internal/telemetry/tsdb"
)

// Obs is the observability session of the dnsnoise CLIs: its flags, and
// once started, its running state. Telemetry (-metrics-addr, -progress,
// -report) turns on the registry and tracer; the query log (-qlog,
// -qlog-sample, -qlog-mem) turns on with a file or an endpoint; continuous
// telemetry (-tsdb-interval, -alert-rules) sweeps the registry into a tsdb
// of tsdb.DefaultRetain samples a series and evaluates alert rules after
// every sweep. All of it is opt-in: with no flag set every handle is nil,
// every instrument downstream is a nil no-op and stdout is byte-identical.
type Obs struct {
	MetricsAddr  string
	Progress     time.Duration
	ReportPath   string
	QlogPath     string
	QlogSample   int
	QlogMem      int
	TSDBInterval time.Duration
	AlertRules   string

	// Set by Start; nil when the matching flags are off. Pass them through
	// unconditionally: everything downstream is nil-safe.
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	Logger   *slog.Logger // only with -progress

	log          *qlog.Log
	report       *telemetry.RunReport
	ln           net.Listener
	srv          *http.Server
	served       chan struct{} // closed when srv.Serve has returned
	sweeper      *tsdb.Sweeper
	stopProgress func()
	closed       bool
}

// RegisterFlags adds the session's flags to fs.
func (o *Obs) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.MetricsAddr, "metrics-addr", "",
		"serve GET /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9153; empty disables)")
	fs.DurationVar(&o.Progress, "progress", 0,
		"log a structured progress line to stderr at this interval (e.g. 10s; 0 disables)")
	fs.StringVar(&o.ReportPath, "report", "",
		"write a machine-readable JSON run report to this path at exit ('-' for stdout; empty disables)")
	fs.StringVar(&o.QlogPath, "qlog", "",
		"write sampled query events as JSON lines to this path (.gz compresses; empty disables the file sink)")
	fs.IntVar(&o.QlogSample, "qlog-sample", qlog.DefaultSample,
		"record 1 query in N per worker (1 records every query)")
	fs.IntVar(&o.QlogMem, "qlog-mem", 1024,
		"retain the last N sampled events for GET /debug/qlog (needs -metrics-addr)")
	fs.DurationVar(&o.TSDBInterval, "tsdb-interval", 0,
		"sweep telemetry into the in-process tsdb at this interval and evaluate alert rules (e.g. 1s; 0 disables)")
	fs.StringVar(&o.AlertRules, "alert-rules", "",
		"JSON SLO/alert rules file evaluated each tsdb sweep (empty: built-in defaults; 'none': no rules)")
}

// Start builds the session from the parsed flags in dependency order:
// registry and tracer, the HTTP endpoint (every route on one mux), the
// query log and its sinks, then the tsdb, alert engine and sweeper. On
// error it closes whatever it opened. Defer Close for error paths and also
// return it at the end of a successful run, to surface flush and
// report-write errors.
func (o *Obs) Start(command string, args []string) (err error) {
	telemetryOn := o.MetricsAddr != "" || o.Progress > 0 || o.ReportPath != ""
	if o.TSDBInterval > 0 && !telemetryOn {
		return fmt.Errorf("alerts: -tsdb-interval needs telemetry enabled (-metrics-addr, -progress or -report)")
	}
	defer func() {
		if err != nil {
			o.Close()
		}
	}()
	var mux *http.ServeMux
	if telemetryOn {
		o.Registry, o.Tracer = telemetry.NewRegistry(), telemetry.NewTracer()
		if o.Progress > 0 {
			o.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		}
		if o.ReportPath != "" {
			o.report = telemetry.NewRunReport(command, args)
		}
		if o.MetricsAddr != "" {
			if o.ln, err = net.Listen("tcp", o.MetricsAddr); err != nil {
				return fmt.Errorf("telemetry: listen %s: %w", o.MetricsAddr, err)
			}
			// More specific routes mounted below win over the catch-all.
			mux = http.NewServeMux()
			mux.Handle("/", o.Registry.Handler())
			o.srv, o.served = &http.Server{Handler: mux}, make(chan struct{})
			go func() {
				_ = o.srv.Serve(o.ln) // ErrServerClosed once Close runs
				close(o.served)
			}()
			fmt.Fprintf(os.Stderr, "telemetry: serving /metrics and /debug/pprof on http://%s\n", o.ln.Addr())
		}
	}

	if o.QlogPath != "" || mux != nil {
		if o.QlogSample < 1 {
			o.QlogSample = qlog.DefaultSample
		}
		o.log = qlog.New(qlog.Config{Sample: o.QlogSample})
		if o.QlogPath != "" {
			f, err := jsonl.Create[qlog.Event](o.QlogPath)
			if err != nil {
				return fmt.Errorf("qlog: %w", err)
			}
			o.log.AddSink(qlog.JSONLSink{Writer: f})
		}
		if mux != nil {
			mem, ex := qlog.NewMemorySink(o.QlogMem), qlog.NewExemplarSink()
			o.log.AddSink(mem)
			o.log.AddSink(ex)
			mux.Handle("/debug/qlog", mem.Handler())
			mux.Handle("/debug/qlog/exemplars", ex.Handler())
			fmt.Fprintf(os.Stderr, "qlog: serving /debug/qlog and /debug/qlog/exemplars (last %d events, 1-in-%d sampled)\n",
				o.QlogMem, o.QlogSample)
		}
	}

	if o.TSDBInterval > 0 {
		var rules []alerts.Rule
		switch o.AlertRules {
		case "none":
		case "":
			rules = alerts.DefaultRules()
		default:
			if rules, err = alerts.LoadRules(o.AlertRules); err != nil {
				return err
			}
		}
		db := tsdb.New()
		// Transitions mirror into the query log (nil is fine).
		engine := alerts.NewEngine(db, rules, o.log)
		o.sweeper = tsdb.NewSweeper(db, o.TSDBInterval, o.Registry.Snapshot)
		o.sweeper.OnSweep(engine.Eval)
		o.sweeper.Start()
		if mux != nil {
			mux.Handle("/debug/tsdb", db.Handler())
			mux.Handle("/debug/alerts", engine.Handler())
			fmt.Fprintf(os.Stderr, "telemetry: tsdb sweeping every %v (%d rules); /debug/tsdb and /debug/alerts live\n",
				o.TSDBInterval, len(rules))
		}
	}
	return nil
}

// Log returns the query log (nil when disabled).
func (o *Obs) Log() *qlog.Log { return o.log }

// StartProgress starts the -progress line (a no-op without the flag). Call
// it once the objects fn reads exist; fn may be nil for process vitals
// only.
func (o *Obs) StartProgress(fn telemetry.ProgressFunc) {
	if o.Logger == nil || o.stopProgress != nil {
		return
	}
	o.stopProgress = telemetry.StartProgress(o.Logger, o.Progress, fn)
}

// ResolverOptions attaches a cluster's counters and event recorders.
func (o *Obs) ResolverOptions() []resolver.Option {
	return []resolver.Option{resolver.WithTelemetry(o.Registry), resolver.WithQueryLog(o.log)}
}

// IngestOptions attaches a run's day stamps, counters, per-day spans and
// per-day progress lines.
func (o *Obs) IngestOptions() []ingest.Option {
	return []ingest.Option{
		ingest.WithQueryLog(o.log),
		ingest.WithMetrics(o.Registry),
		ingest.WithTracer(o.Tracer),
		ingest.WithProgress(o.Logger),
	}
}

// Close shuts the session down in the reverse of Start: the sweeper stops
// first, because its final sweep may still mirror an alert transition into
// the query log; then the query log flushes and closes; then the progress
// line stops, the run report is written and the endpoint closes. The query
// log needs quiesced recorders, so join whatever is still resolving (a
// serve loop) before calling. Idempotent; returns the first error.
func (o *Obs) Close() error {
	if o.closed {
		return nil
	}
	o.closed = true
	if o.sweeper != nil {
		o.sweeper.Stop()
	}
	var err error
	if cerr := o.log.Close(); cerr != nil {
		err = fmt.Errorf("qlog: %w", cerr)
	}
	if o.stopProgress != nil {
		o.stopProgress()
	}
	if o.report != nil {
		if rerr := o.report.Finish(o.Registry, o.Tracer).WriteFile(o.ReportPath); err == nil {
			err = rerr
		}
	}
	if o.srv != nil {
		if cerr := o.srv.Close(); err == nil {
			err = cerr
		}
		<-o.served // the listener is closed once Serve returns
	}
	return err
}
