package alerts

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dnsnoise/internal/qlog"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/tsdb"
)

// CLIConfig is the continuous-telemetry flag set shared by the dnsnoise
// commands: -tsdb-interval (sweep cadence, 0 disables everything),
// -tsdb-retain (ring capacity) and -alert-rules (JSON rules file; empty
// uses the built-in defaults, "none" disables alerting). It rides on top
// of telemetry.CLIConfig: the tsdb sweeps the session's Registry, and the
// /debug/tsdb + /debug/alerts handlers mount on the session's endpoint.
type CLIConfig struct {
	Interval  time.Duration
	Retain    int
	RulesPath string
}

// RegisterFlags adds the continuous-telemetry flags to fs.
func (c *CLIConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.DurationVar(&c.Interval, "tsdb-interval", 0,
		"sweep telemetry into the in-process tsdb at this interval and evaluate alert rules (e.g. 1s; 0 disables)")
	fs.IntVar(&c.Retain, "tsdb-retain", tsdb.DefaultRetain,
		"samples retained per tsdb series (ring capacity)")
	fs.StringVar(&c.RulesPath, "alert-rules", "",
		"JSON SLO/alert rules file evaluated each tsdb sweep (empty: built-in defaults; 'none': no rules)")
}

// Rules resolves the flag set's rules: the file when given, the built-in
// defaults otherwise, none for "none".
func (c CLIConfig) Rules() ([]Rule, error) {
	switch c.RulesPath {
	case "none":
		return nil, nil
	case "":
		return DefaultRules(), nil
	default:
		return LoadRules(c.RulesPath)
	}
}

// CLISession owns the running sweeper and engine for one command.
type CLISession struct {
	sweeper *tsdb.Sweeper
	closed  bool
}

// Start wires the tsdb and alert engine onto a telemetry session: the
// sweeper snapshots sess.Registry every Interval, the engine evaluates
// after each sweep, transitions mirror into ql (nil is fine), and the
// debug handlers mount on the session's endpoint when it has one. With
// Interval 0 the returned session is inert. Requires an enabled telemetry
// session — there is nothing to sweep otherwise.
func (c CLIConfig) Start(sess *telemetry.Session, ql *qlog.Log) (*CLISession, error) {
	s := &CLISession{}
	if c.Interval <= 0 {
		return s, nil
	}
	if sess == nil || sess.Registry == nil {
		return nil, fmt.Errorf("alerts: -tsdb-interval needs telemetry enabled (-metrics-addr, -progress or -report)")
	}
	rules, err := c.Rules()
	if err != nil {
		return nil, err
	}
	db := tsdb.New(tsdb.Config{Retain: c.Retain})
	engine := NewEngine(db, rules, WithQueryLog(ql))
	s.sweeper = tsdb.NewSweeper(db, c.Interval, sess.Registry.Snapshot)
	s.sweeper.OnSweep(engine.Eval)
	sess.Handle("/debug/tsdb", db.Handler())
	sess.Handle("/debug/alerts", engine.Handler())
	s.sweeper.Start()
	if sess.HasEndpoint() {
		fmt.Fprintf(os.Stderr, "telemetry: tsdb sweeping every %v (%d rules); /debug/tsdb and /debug/alerts live\n",
			c.Interval, len(rules))
	}
	return s, nil
}

// Close stops the sweep loop (recording one final sweep). Idempotent.
// Close before the qlog session closes: the engine mirrors transitions
// into the log, and the final sweep may still emit one.
func (s *CLISession) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	if s.sweeper != nil {
		s.sweeper.Stop()
	}
	return nil
}
