// Command dnsnoise-serve exposes the simulated authoritative namespace on a
// real UDP socket, so standard tooling can query it:
//
//	dnsnoise-serve -addr 127.0.0.1:5355 &
//	dig @127.0.0.1 -p 5355 www.google.com A
//	dig @127.0.0.1 -p 5355 0.0.0.0.1.0.0.4e.abc123.avqs.mcafee.com A
//
// Zone files (RFC 1035 master-file subset) can be layered on top of the
// generated namespace with -zonefile.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/livescore"
	"dnsnoise/internal/sim"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/udptransport"
)

func main() {
	svc, err := start(os.Args[1:])
	if err == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "shutting down")
		err = svc.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-serve:", err)
		os.Exit(1)
	}
}

// service is a started dnsnoise-serve: the namespace's authority answering
// on a socket, with live scoring behind it when -score is set.
type service struct {
	auth    *authority.Server
	srv     *udptransport.Server
	eng     *livescore.Engine
	obs     *sim.Obs
	example string // a mined disposable name, with -score
}

// Close stops the service. The serve loop is joined first, so the final
// qlog flush sees quiesced recorders.
func (s *service) Close() error {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.eng != nil {
		s.eng.Close()
	}
	return s.obs.Close()
}

// start parses args, builds the namespace and starts serving it; the caller
// owns the returned service and closes it.
func start(args []string) (_ *service, err error) {
	fs := flag.NewFlagSet("dnsnoise-serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:5355", "UDP listen address")
		zonefile = fs.String("zonefile", "", "optional extra zone file to serve ($ORIGIN required)")
		nlisten  = fs.Int("listeners", 1, "SO_REUSEPORT listener sockets sharing the port (Linux; elsewhere falls back to 1)")
		batch    = fs.Int("batch", udptransport.DefaultBatch, "datagrams moved per syscall via recvmmsg/sendmmsg (1 = single-packet syscalls)")
		tcp      = fs.Bool("tcp", false, "also answer over TCP on the same port (RFC 1035 framing, for TC=1 retries)")
	)
	var score scoreConfig
	fs.BoolVar(&score.enabled, "score", false, "live-score every query against the streaming miner (trains on one in-process day at startup)")
	fs.Float64Var(&score.theta, "theta", 0.9, "classification threshold for -score")
	fs.DurationVar(&score.window, "window", 30*time.Second, "wall-clock re-score interval for -score (0 = intake only, never re-score)")
	fs.IntVar(&score.hysteresis, "hysteresis", 2, "consecutive re-score windows required to flip a zone's verdict")
	// Of the -score training cluster only the cache flags are adjustable.
	scale := serveScale()
	scale.RegisterNamespaceFlags(fs)
	scale.RegisterCacheFlags(fs)
	var obs sim.Obs
	obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := obs.Start("dnsnoise-serve", args); err != nil {
		return nil, err
	}
	svc := &service{obs: &obs}
	defer func() {
		if err != nil {
			svc.Close()
		}
	}()

	env, err := sim.NewNamespace(scale)
	if err != nil {
		return nil, err
	}
	svc.auth = env.Authority
	if *zonefile != "" {
		f, err := os.Open(*zonefile)
		if err != nil {
			return nil, err
		}
		zone, err := authority.ParseZoneFile(f, "")
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", *zonefile, err)
		}
		if err := svc.auth.AddZone(zone); err != nil {
			return nil, fmt.Errorf("add %s: %w", *zonefile, err)
		}
		fmt.Fprintf(os.Stderr, "serving extra zone %s\n", zone.Origin())
	}

	serveOpts := []udptransport.ServerOption{
		udptransport.WithServerMetrics(obs.Registry),
		udptransport.WithServerQueryLog(obs.Log()),
		udptransport.WithListeners(*nlisten),
		udptransport.WithBatch(*batch),
	}
	if *tcp {
		serveOpts = append(serveOpts, udptransport.WithTCP())
	}
	if score.enabled {
		if svc.eng, svc.example, err = buildScoring(env, score, obs.Registry); err != nil {
			return nil, err
		}
		eng := svc.eng
		serveOpts = append(serveOpts, udptransport.WithScorer(
			func(listener int) udptransport.Scorer { return eng.NewScorer() }))
	}

	if svc.srv, err = udptransport.Serve(svc.auth, *addr, serveOpts...); err != nil {
		return nil, err
	}
	obs.StartProgress(serveProgress(obs.Registry))
	fmt.Fprintf(os.Stderr, "serving %d zones on udp://%s with %d listener(s), batch %d (try: dig @%s www.google.com A)\n",
		len(env.Registry.AllZones()), svc.srv.Addr(), svc.srv.Listeners(), svc.srv.Batch(), svc.srv.Addr())
	return svc, nil
}

// serveProgress returns the per-tick attributes for the -progress line:
// cumulative datagrams in/out and the receive rate since the last tick.
// It runs on the progress goroutine only, so the last-tick state needs
// no locking.
func serveProgress(reg *telemetry.Registry) telemetry.ProgressFunc {
	var (
		lastRx      uint64
		lastElapsed time.Duration
	)
	return func(elapsed time.Duration) []slog.Attr {
		snap := reg.Snapshot()
		rx := snap.Counter("udp_rx_packets_total")
		dt := (elapsed - lastElapsed).Seconds()
		drx := rx - lastRx
		lastRx, lastElapsed = rx, elapsed
		attrs := []slog.Attr{
			slog.Uint64("rx_packets", rx),
			slog.Uint64("tx_packets", snap.Counter("udp_tx_packets_total")),
			slog.Uint64("dropped", snap.Counter("udp_dropped_total")),
		}
		if dt > 0 {
			attrs = append(attrs, slog.Float64("rx_pps", float64(drx)/dt))
		}
		return attrs
	}
}
