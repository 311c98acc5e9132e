package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"os"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/features"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/livescore"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/udptransport"
	"dnsnoise/internal/workload"
)

// serve-wire is the front door as dnsnoise-serve -score runs it: the
// authority behind one UDP listener on loopback, every datagram live-scored
// against a miner primed from one training day, driven by one goroutine
// that keeps a window of queries in flight on one connected socket. It is
// the only workload that crosses the kernel. udptransport,
// authority.AppendHandleWire and livescore.ScoreWire do all the work and
// the resolver cache none, so a cache or miner change must leave it flat.

type serveSpec struct {
	zones, dispZones, hosts   int
	trainClients, trainEvents int // the -score training day (cmd/dnsnoise-serve/score.go)
	names                     int // distinct pre-encoded queries
	roundOps                  int // responses per round
	pingPongs                 int // window-1 round trips in the traced pass
}

// serveWindow is how many queries the client keeps in flight.
const serveWindow = 32

// serveTimeout is how long the client waits for any response before it
// writes off everything in flight. Loopback does not lose datagrams with 32
// in flight, so a timeout is a stalled server; a full second keeps a
// descheduled VM from being reported as one.
const serveTimeout = time.Second

func serveSpecFor(smoke bool) serveSpec {
	if smoke {
		return serveSpec{
			zones: 60, dispZones: 20, hosts: 24,
			trainClients: 200, trainEvents: 10_000,
			names: 2000, roundOps: 500, pingPongs: 200,
		}
	}
	return serveSpec{
		zones: 900, dispZones: 398, hosts: 128,
		trainClients: 1000, trainEvents: 60_000,
		names: 200_000, roundOps: 50_000, pingPongs: 5000,
	}
}

// expectation is what the authority answered in-process for one query.
type expectation struct {
	rcode   uint8
	ancount uint16
}

// dnsHeaderLen is the fixed DNS header; anything shorter answers nothing.
const dnsHeaderLen = 12

// wireID reads the ID of a DNS message of at least dnsHeaderLen bytes.
func wireID(msg []byte) uint16 { return binary.BigEndian.Uint16(msg) }

// answerOf reads the checked header fields of such a message.
func answerOf(msg []byte) expectation {
	return expectation{rcode: msg[3] & 0x0f, ancount: binary.BigEndian.Uint16(msg[6:])}
}

type serve struct {
	spec    serveSpec
	tr      *tracer
	log     io.Writer
	auth    *authority.Server
	engine  *livescore.Engine
	metrics *telemetry.Registry // traced runs only
	qlog    *qlog.Log           // traced runs only
	server  *udptransport.Server
	conn    net.Conn

	// The query set: wires[i] is query i in wire format with ID 0.
	wires  [][]byte
	expect []expectation

	// Client state. inflight maps a DNS ID to 1 + the index of the query
	// it carries, 0 when the ID is free.
	inflight    [1 << 16]int32
	sentAt      [1 << 16]time.Time // traced runs only
	next        int
	id          uint16
	outstanding int
	reads       int
	failed      int
	tx, rx      []byte
	rtts        []float64 // traced runs only, microseconds

	trainMs, buildTreeMs, mineMs float64
}

func setupServe(cfg config, tr *tracer) (instance, error) {
	spec := serveSpecFor(cfg.smoke)
	w := &serve{spec: spec, tr: tr, log: cfg.log, tx: make([]byte, 512), rx: make([]byte, 4096)}
	reg := workload.NewRegistry(workload.RegistryConfig{
		Seed:               namespaceSeed,
		NonDisposableZones: spec.zones,
		DisposableZones:    spec.dispZones,
		HostsPerZoneMax:    spec.hosts,
	})
	var err error
	if w.auth, err = reg.BuildAuthority(nil, nil); err != nil {
		return nil, fmt.Errorf("build authority: %w", err)
	}
	if err := w.startScoring(reg, cfg.seed); err != nil {
		return nil, err
	}
	opts := []udptransport.ServerOption{
		udptransport.WithListeners(1),
		udptransport.WithScorer(func(int) udptransport.Scorer { return w.engine.NewScorer() }),
	}
	if tr != nil {
		// The server's own instruments. Its handler-latency histogram is
		// fed from the query log's head-sampled packets, so the traced run
		// attaches a log with no sinks.
		w.metrics = telemetry.NewRegistry()
		w.qlog = qlog.New(qlog.Config{})
		w.engine.SetMetrics(w.metrics)
		opts = append(opts, udptransport.WithServerMetrics(w.metrics), udptransport.WithServerQueryLog(w.qlog))
	}
	if w.server, err = udptransport.Serve(w.auth, "127.0.0.1:0", opts...); err != nil {
		w.close()
		return nil, err
	}
	if w.conn, err = net.Dial("udp", w.server.Addr()); err != nil {
		w.close()
		return nil, err
	}
	if err := w.buildQueries(reg, cfg.seed); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// startScoring primes live scoring the way dnsnoise-serve -score does:
// one simulated December day against the namespace, a classifier on the
// tree-structure features (the serve path sees names, not cache outcomes),
// one batch mine to prime the streaming pipeline. The engine drains names
// but never re-scores: dnsnoise-serve's 30 s cadence would fire at most
// once in a run, at a moment the host picks.
func (w *serve) startScoring(reg *workload.Registry, seed int64) error {
	cluster, err := resolver.NewCluster(w.auth,
		resolver.WithServers(simServers), resolver.WithCacheSize(1<<14))
	if err != nil {
		return err
	}
	gen := workload.NewGenerator(reg, workload.GeneratorConfig{
		Seed: seed + 2, Clients: w.spec.trainClients, BaseEventsPerDay: w.spec.trainEvents,
	})
	var collector *chrstat.Collector
	runner := ingest.NewRunner(cluster, ingest.WithSingleWindow(),
		ingest.OnWindow(func(win ingest.Window) error {
			collector = win.Collector
			return nil
		}))
	if err := runner.Run(ingest.NewGeneratorSource(gen, workload.DecemberProfile(december))); err != nil {
		return fmt.Errorf("training day: %w", err)
	}
	byName := collector.ByName()

	start := time.Now()
	tcfg := core.TrainingConfig{FeatureMask: features.TreeStructureIdx}
	examples := core.BuildTrainingSet(core.BuildTree(byName, nil), byName, reg.TrainingLabels(mineNegatives), tcfg)
	clf, err := core.TrainClassifier(examples, tcfg)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	w.trainMs = msSince(start)
	mcfg := core.MinerConfig{Theta: mineTheta, FeatureMask: features.TreeStructureIdx}
	miner, err := core.NewMiner(clf, mcfg)
	if err != nil {
		return err
	}
	start = time.Now()
	tree := core.BuildTree(byName, nil)
	w.buildTreeMs = msSince(start)
	start = time.Now()
	findings, err := miner.Mine(tree, byName)
	if err != nil {
		return fmt.Errorf("prime mine: %w", err)
	}
	w.mineMs = msSince(start)
	pipe, err := core.NewStreamingPipeline(clf, mcfg,
		core.StreamingConfig{Hysteresis: core.DefaultHysteresis}, nil)
	if err != nil {
		return err
	}
	pipe.Prime(findings)
	w.engine = livescore.NewEngine(pipe)
	w.engine.Start(0)
	return nil
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// buildQueries mints the query set round-robin over the registry's zones
// and asks the authority in-process what the right answer to each is.
func (w *serve) buildQueries(reg *workload.Registry, seed int64) error {
	zones := reg.AllZones()
	rng := rand.New(rand.NewSource(seed + 11))
	w.wires = make([][]byte, w.spec.names)
	w.expect = make([]expectation, w.spec.names)
	for i := range w.wires {
		name, qtype := zones[i%len(zones)].NextName(rng)
		wire, err := dnsmsg.NewQuery(0, name, qtype).Encode()
		if err != nil {
			return fmt.Errorf("encode query for %s: %w", name, err)
		}
		resp, err := w.auth.HandleWire(wire)
		if err != nil || len(resp) < dnsHeaderLen {
			return fmt.Errorf("in-process answer for %s: %d bytes, %v", name, len(resp), err)
		}
		w.wires[i] = wire
		w.expect[i] = answerOf(resp)
	}
	return nil
}

func (w *serve) run(m *meter) error {
	w.failed = 0
	for {
		if err := w.round(w.spec.roundOps); err != nil {
			return err
		}
		m.roundDone(w.spec.roundOps)
		if m.expired(len(m.rounds)) {
			return nil
		}
	}
}

// send puts the next query of the set on the wire under a fresh ID.
func (w *serve) send() error {
	idx := w.next % len(w.wires)
	w.next++
	w.id++
	wire := w.wires[idx]
	n := copy(w.tx, wire)
	binary.BigEndian.PutUint16(w.tx, w.id)
	w.inflight[w.id] = int32(idx) + 1
	w.outstanding++
	if w.tr != nil {
		w.sentAt[w.id] = time.Now()
	}
	_, err := w.conn.Write(w.tx[:n])
	return err
}

// round keeps window queries in flight until ops of them have completed,
// by a checked response or by timing out. The window is left in flight for
// the next round.
func (w *serve) round(ops int) error {
	for done := 0; done < ops; {
		for w.outstanding < serveWindow {
			if err := w.send(); err != nil {
				return err
			}
		}
		// Re-arming the deadline costs a timer update, so it is done once
		// per window of reads; a silent server is noticed within
		// serveTimeout of the last re-arm.
		if w.reads%serveWindow == 0 {
			if err := w.conn.SetReadDeadline(time.Now().Add(serveTimeout)); err != nil {
				return err
			}
		}
		w.reads++
		n, err := w.conn.Read(w.rx)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			fmt.Fprintf(w.log, "serve-wire: no response for %v, %d queries written off\n", serveTimeout, w.outstanding)
			w.failed += w.outstanding
			done += w.outstanding
			w.outstanding = 0
			w.inflight = [1 << 16]int32{}
			w.reads = 0
			continue
		}
		if err != nil {
			return err
		}
		if n < dnsHeaderLen {
			w.failed++ // a runt answers no query; its query will time out
			continue
		}
		id := wireID(w.rx)
		slot := w.inflight[id]
		if slot == 0 {
			w.failed++ // a response to nothing in flight
			continue
		}
		w.inflight[id] = 0
		w.outstanding--
		done++
		if answerOf(w.rx) != w.expect[slot-1] {
			w.failed++
		}
		if w.tr != nil {
			w.sample(id)
		}
	}
	return nil
}

// sample records the round trip of the datagram that carried id, and a
// span for one in sampleEvery.
func (w *serve) sample(id uint16) {
	now := time.Now()
	w.rtts = append(w.rtts, float64(now.Sub(w.sentAt[id]))/float64(time.Microsecond))
	if len(w.rtts)%sampleEvery == 0 {
		w.tr.add("rtt", w.tr.round.Load(), w.sentAt[id], now)
	}
}

// drain collects the responses still in flight.
func (w *serve) drain() error {
	if w.outstanding == 0 {
		return nil
	}
	// round tops the window up before it reads, so completing exactly the
	// outstanding count would leave a fresh window behind; a direct read
	// loop does not.
	if err := w.conn.SetReadDeadline(time.Now().Add(serveTimeout)); err != nil {
		return err
	}
	for w.outstanding > 0 {
		n, err := w.conn.Read(w.rx)
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if n >= dnsHeaderLen {
			if id := wireID(w.rx); w.inflight[id] != 0 {
				w.inflight[id] = 0
				w.outstanding--
			}
		}
	}
	return nil
}

func (w *serve) verify(m *meter) (int, uint64) {
	h := fnv.New64a()
	for _, e := range w.expect {
		h.Write([]byte{e.rcode, byte(e.ancount >> 8), byte(e.ancount)})
	}
	return w.failed, h.Sum64()
}

func (w *serve) close() error {
	var err error
	if w.conn != nil {
		err = w.conn.Close()
	}
	if w.server != nil {
		if cerr := w.server.Close(); err == nil {
			err = cerr
		}
	}
	if w.engine != nil {
		w.engine.Close()
	}
	// After the server has joined its workers; a nil log closes to nil.
	if cerr := w.qlog.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *serve) layers(out map[string]float64) error {
	n := len(w.rtts)
	out["udptransport.rtt_samples"] = float64(n)
	out["udptransport.rtt_p50_us"] = percentile(w.rtts, 50)
	// The name says p99; with too few samples for ten beyond it, the
	// highest percentile that has them is reported instead.
	out["udptransport.rtt_p99_us"] = percentile(w.rtts, min(99, highestPercentile(n)))

	snap := w.metrics.Snapshot()
	out["udptransport.handle_p50_ns"] = snap.Histograms["udp_handle_latency_ns"].P50
	out["udptransport.rx_packets"] = float64(snap.Counter("udp_rx_packets_total"))
	out["udptransport.dropped"] = float64(snap.Counter("udp_dropped_total"))
	out["udptransport.truncated"] = float64(snap.Counter("udp_truncated_total"))
	disposable := float64(snap.Counter(`udp_scored_total{verdict="disposable"}`))
	if scored := disposable + float64(snap.Counter(`udp_scored_total{verdict="benign"}`)); scored > 0 {
		out["livescore.disposable_share"] = disposable / scored
	}
	out["livescore.names_dropped"] = float64(w.engine.Dropped())

	if err := w.pingPongPass(out); err != nil {
		return err
	}
	scorer := w.engine.NewScorer()
	out["livescore.score_ns"] = w.tr.pass("pass.livescore.score", len(w.wires), func() {
		for _, wire := range w.wires {
			scorer.ScoreWire(wire)
		}
	})
	var buf []byte
	out["authority.append_ns"] = w.tr.pass("pass.authority.append", len(w.wires), func() {
		for _, wire := range w.wires {
			// buildQueries got an answer for every one of these.
			buf, _ = w.auth.AppendHandleWire(buf[:0], wire)
		}
	})
	var responses [][]byte
	for _, wire := range w.wires[:min(maxWires, len(w.wires))] {
		if resp, err := w.auth.HandleWire(wire); err == nil {
			responses = append(responses, resp)
		}
	}
	dnsmsgPass(w.tr, out, responses)
	out["core.train_ms"] = w.trainMs
	out["core.buildtree_ms"] = w.buildTreeMs
	out["core.mine_ms"] = w.mineMs
	return nil
}

// pingPongPass measures the same socket path with one query in flight:
// no batching on either side, so the figure is a bare round trip.
func (w *serve) pingPongPass(out map[string]float64) error {
	if err := w.drain(); err != nil {
		return err
	}
	if err := w.conn.SetReadDeadline(time.Now().Add(serveTimeout + time.Duration(w.spec.pingPongs)*time.Millisecond)); err != nil {
		return err
	}
	us := make([]float64, 0, w.spec.pingPongs)
	var passErr error
	w.tr.pass("pass.udptransport.pingpong", w.spec.pingPongs, func() {
		for i := 0; i < w.spec.pingPongs; i++ {
			start := time.Now()
			if passErr = w.send(); passErr != nil {
				return
			}
			if _, passErr = w.conn.Read(w.rx); passErr != nil {
				return
			}
			us = append(us, float64(time.Since(start))/float64(time.Microsecond))
			w.inflight[w.id] = 0
			w.outstanding--
		}
	})
	if passErr != nil {
		return fmt.Errorf("ping-pong pass: %w", passErr)
	}
	out["udptransport.rtt_w1_p50_us"] = percentile(us, 50)
	return nil
}
