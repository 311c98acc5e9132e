package sim

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"sync/atomic"
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
// every sweep; -progress logs what a sweep recorded (without
// -tsdb-interval, from a private tsdb swept every -progress). All of it is
// opt-in: with no flag set every handle is nil, every instrument
// downstream is a nil no-op and stdout is byte-identical.
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

	log     *qlog.Log
	report  *telemetry.RunReport
	ln      net.Listener
	srv     *http.Server
	served  chan struct{} // closed when srv.Serve has returned
	db      *tsdb.DB
	sweeper *tsdb.Sweeper
	closed  atomic.Bool // Close has begun: its final sweep logs a progress line

	// The -progress line's clock, and the last -progress period a line was
	// logged in (only the sweep goroutine touches it).
	start      time.Time
	lastPeriod time.Duration
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
// query log and its sinks, then the tsdb, alert engine, progress line and
// sweeper. On error it closes whatever it opened. Defer Close for error
// paths and also return it at the end of a successful run, to surface
// flush and report-write errors.
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

	if o.TSDBInterval <= 0 && o.Logger == nil {
		return nil
	}
	every := o.TSDBInterval
	if every <= 0 {
		every = o.Progress // a private tsdb, with no rules
	}
	o.db = tsdb.New()
	o.sweeper = tsdb.NewSweeper(o.db, every, o.Registry.Snapshot)
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
		// Transitions mirror into the query log (nil is fine).
		engine := alerts.NewEngine(o.db, rules, o.log)
		o.sweeper.OnSweep(engine.Eval)
		if mux != nil {
			mux.Handle("/debug/tsdb", o.db.Handler())
			mux.Handle("/debug/alerts", engine.Handler())
			fmt.Fprintf(os.Stderr, "telemetry: tsdb sweeping every %v (%d rules); /debug/tsdb and /debug/alerts live\n",
				o.TSDBInterval, len(rules))
		}
	}
	if o.Logger != nil {
		o.start = time.Now()
		o.sweeper.OnSweep(o.logProgress)
	}
	o.sweeper.Start()
	return nil
}

// progressSeries are what a -progress line prints after uptime_s, each
// the latest sweep's sample (tsdb.DB.Latest); a series the command did
// not register is left out.
var progressSeries = func() []string {
	var names []string
	for _, r := range tsdb.DefaultDerived() {
		names = append(names, r.Name)
	}
	return append(names, "resolver_queries_total", "ingest_queries_total",
		"udp_rx_packets_total", "udp_tx_packets_total", "udp_dropped_total",
		"exp_completed_total", "exp_selected", "go_heap_alloc_bytes", "go_goroutines")
}()

// logProgress is the sweep hook of -progress: it logs the first sweep of
// each -progress period, and the final sweep Close takes.
func (o *Obs) logProgress(now time.Time) {
	uptime := now.Sub(o.start)
	period := uptime / o.Progress
	if period <= o.lastPeriod && !o.closed.Load() {
		return
	}
	o.lastPeriod = period
	attrs := []slog.Attr{slog.Float64("uptime_s", uptime.Seconds())}
	for _, name := range progressSeries {
		v, ok := o.db.Latest(name)
		switch {
		case !ok:
		case v == math.Trunc(v) && math.Abs(v) < 1<<53:
			attrs = append(attrs, slog.Int64(name, int64(v)))
		default:
			attrs = append(attrs, slog.Float64(name, v))
		}
	}
	o.Logger.LogAttrs(context.Background(), slog.LevelInfo, "progress", attrs...)
}

// Log returns the query log (nil when disabled).
func (o *Obs) Log() *qlog.Log { return o.log }

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
// first, because its final sweep logs the last progress line and may still
// mirror an alert transition into the query log; then the query log
// flushes and closes, the run report is written and the endpoint closes.
// The query log needs quiesced recorders, so join whatever is still
// resolving (a serve loop) before calling. Idempotent; returns the first
// error.
func (o *Obs) Close() error {
	if o.closed.Swap(true) {
		return nil
	}
	o.sweeper.Stop()
	var err error
	if cerr := o.log.Close(); cerr != nil {
		err = fmt.Errorf("qlog: %w", cerr)
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
