// Command dnsnoise-serve exposes the simulated authoritative namespace on a
// real UDP socket, so standard tooling can query it:
//
//	dnsnoise-serve -addr 127.0.0.1:5355 &
//	dig @127.0.0.1 -p 5355 www.google.com A
//	dig @127.0.0.1 -p 5355 0.0.0.0.1.0.0.4e.abc123.avqs.mcafee.com A
//
// Zone files (RFC 1035 master-file subset) can be layered on top of the
// generated namespace with -zonefile. With -recursive the socket is served
// by a recursive resolver instead: one server of a resolver cluster
// (resolver.Shard), its cache in front of the namespace's authority, so a
// repeated question is a cache hit, as the paper's resolvers answer it.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/livescore"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/sim"
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

// service is a started dnsnoise-serve: the namespace's authority, or with
// -recursive a resolver shard recursing to it, answering on a socket, with
// live scoring behind it when -score is set.
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
		tcp      = fs.Bool("tcp", false, "also answer over TCP on the same port (RFC 1035 framing, for TC=1 retries)")
		recurse  = fs.Bool("recursive", false, "answer as a recursive resolver: one cache in front of the namespace's authority (one listener, no -tcp)")
	)
	var score scoreConfig
	fs.BoolVar(&score.enabled, "score", false, "live-score every query against the streaming miner (trains on one in-process day at startup)")
	fs.Float64Var(&score.theta, "theta", 0.9, "classification threshold for -score")
	fs.DurationVar(&score.window, "window", 30*time.Second, fmt.Sprintf("wall-clock re-score interval for -score; the miner keeps the names of the last %d windows", serveHorizon))
	scale := serveScale()
	scale.RegisterNamespaceFlags(fs)
	var obs sim.Obs
	obs.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if score.enabled && score.window <= 0 {
		// A miner that is never re-scored would only hold what it notes.
		return nil, fmt.Errorf("-window %s: the re-score interval must be positive", score.window)
	}
	// A shard is one server's state, read and written by the goroutine that
	// answers it: one listener's, and no TCP connection's.
	if *recurse && *nlisten > 1 {
		return nil, fmt.Errorf("-recursive -listeners %d: a resolver shard answers one listener, so -listeners must be 1", *nlisten)
	}
	if *recurse && *tcp {
		return nil, fmt.Errorf("-recursive -tcp: a resolver shard answers one listener's datagrams, not TCP connections")
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
		udptransport.WithListeners(*nlisten),
	}
	if *tcp {
		serveOpts = append(serveOpts, udptransport.WithTCP())
	}
	var handler dnsmsg.WireHandler = svc.auth
	what := "zones"
	if *recurse {
		// The resolver logs each query's cache outcome, so the query log is
		// the cluster's and not the transport's: one event a query.
		cl, err := resolver.NewCluster(svc.auth, resolver.WithServers(1),
			resolver.WithTelemetry(obs.Registry), resolver.WithQueryLog(obs.Log()))
		if err != nil {
			return nil, err
		}
		handler, what = cl.Shard(0), "zones recursively"
	} else {
		serveOpts = append(serveOpts, udptransport.WithServerQueryLog(obs.Log()))
	}
	if score.enabled {
		// With -recursive the resolver series are the shard's, so the
		// training cluster registers none.
		trainReg := obs.Registry
		if *recurse {
			trainReg = nil
		}
		if svc.eng, svc.example, err = buildScoring(env, score, obs.Registry, trainReg); err != nil {
			return nil, err
		}
		eng := svc.eng
		serveOpts = append(serveOpts, udptransport.WithScorer(
			func(listener int) udptransport.Scorer { return eng.NewScorer() }))
	}

	if svc.srv, err = udptransport.Serve(handler, *addr, serveOpts...); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "serving %d %s on udp://%s with %d listener(s) (try: dig @%s www.google.com A)\n",
		len(env.Registry.AllZones()), what, svc.srv.Addr(), svc.srv.Listeners(), svc.srv.Addr())
	return svc, nil
}
