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
	"dnsnoise/internal/sim"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/udptransport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
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
		return err
	}
	if err := obs.Start("dnsnoise-serve", args); err != nil {
		return err
	}
	defer obs.Close()

	env, err := sim.NewNamespace(scale)
	if err != nil {
		return err
	}
	auth := env.Authority
	if *zonefile != "" {
		f, err := os.Open(*zonefile)
		if err != nil {
			return err
		}
		zone, err := authority.ParseZoneFile(f, "")
		f.Close()
		if err != nil {
			return fmt.Errorf("parse %s: %w", *zonefile, err)
		}
		if err := auth.AddZone(zone); err != nil {
			return fmt.Errorf("add %s: %w", *zonefile, err)
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
		eng, err := buildScoring(env, score, obs.Registry)
		if err != nil {
			return err
		}
		defer eng.Close()
		serveOpts = append(serveOpts, udptransport.WithScorer(
			func(listener int) udptransport.Scorer { return eng.NewScorer() }))
	}

	srv, err := udptransport.Serve(auth, *addr, serveOpts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	obs.StartProgress(serveProgress(obs.Registry))
	fmt.Fprintf(os.Stderr, "serving %d zones on udp://%s with %d listener(s), batch %d (try: dig @%s www.google.com A)\n",
		len(env.Registry.AllZones()), srv.Addr(), srv.Listeners(), srv.Batch(), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down")
	// Join the serve loop first, so the final qlog flush sees quiesced
	// recorders.
	srv.Close()
	return obs.Close()
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
