package telemetry

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"
)

// CLIConfig is the observability flag set shared by the dnsnoise
// commands: -metrics-addr (HTTP endpoint), -progress (periodic
// structured log line), and -report (end-of-run JSON). All three are
// opt-in; with none set, Start returns a Session whose Registry and
// Tracer are nil, so every downstream instrument is a no-op and the
// command's output is bit-for-bit what it was without telemetry.
type CLIConfig struct {
	MetricsAddr string
	Interval    time.Duration
	ReportPath  string
}

// RegisterFlags adds the telemetry flags to fs.
func (c *CLIConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "",
		"serve GET /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9153; empty disables)")
	fs.DurationVar(&c.Interval, "progress", 0,
		"log a structured progress line to stderr at this interval (e.g. 10s; 0 disables)")
	fs.StringVar(&c.ReportPath, "report", "",
		"write a machine-readable JSON run report to this path at exit ('-' for stdout; empty disables)")
}

func (c CLIConfig) enabled() bool {
	return c.MetricsAddr != "" || c.Interval > 0 || c.ReportPath != ""
}

// Session is one command invocation's observability state. Registry,
// Tracer and Logger are nil when the matching flags are off — pass them
// through unconditionally; everything downstream is nil-safe.
type Session struct {
	Registry *Registry
	Tracer   *Tracer
	Logger   *slog.Logger // non-nil only when -progress is set

	interval     time.Duration
	report       *RunReport
	reportPath   string
	server       *HTTPServer
	stopProgress func()
	closed       bool
}

// Start builds the session from the parsed flags: it creates the
// registry and tracer, binds the HTTP endpoint, and starts the report
// clock. Callers should defer Close and also call it explicitly at the
// end of a successful run to surface report-write errors.
func (c CLIConfig) Start(command string, args []string) (*Session, error) {
	s := &Session{interval: c.Interval, reportPath: c.ReportPath}
	if !c.enabled() {
		return s, nil
	}
	s.Registry = NewRegistry()
	s.Tracer = NewTracer()
	if c.Interval > 0 {
		s.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if c.ReportPath != "" {
		s.report = NewRunReport(command, args)
	}
	if c.MetricsAddr != "" {
		srv, err := s.Registry.Serve(c.MetricsAddr)
		if err != nil {
			return nil, err
		}
		s.server = srv
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics and /debug/pprof on http://%s\n", srv.Addr())
	}
	return s, nil
}

// HasEndpoint reports whether -metrics-addr bound an HTTP server this
// session, i.e. whether Handle can mount additional debug routes.
func (s *Session) HasEndpoint() bool { return s != nil && s.server != nil }

// Handle mounts handler at pattern on the session's HTTP endpoint (a
// no-op without one). qlog uses this to put /debug/qlog next to
// /metrics.
func (s *Session) Handle(pattern string, handler http.Handler) {
	if !s.HasEndpoint() {
		return
	}
	s.server.Handle(pattern, handler)
}

// -progress was set). Call it once the objects fn reads exist; fn may
// be nil for process vitals only.
func (s *Session) StartProgress(fn ProgressFunc) {
	if s == nil || s.Logger == nil || s.stopProgress != nil {
		return
	}
	s.stopProgress = StartProgress(s.Logger, s.interval, fn)
}

// Close stops the progress ticker, writes the run report, and shuts the
// HTTP endpoint down. It is idempotent, so it can be both deferred (for
// error paths) and called explicitly (to check the report write).
func (s *Session) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	if s.stopProgress != nil {
		s.stopProgress()
	}
	var err error
	if s.report != nil {
		err = s.report.Finish(s.Registry, s.Tracer).WriteFile(s.reportPath)
	}
	if s.server != nil {
		if cerr := s.server.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
