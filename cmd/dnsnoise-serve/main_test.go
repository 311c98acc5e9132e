package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/jsonl"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/telemetry"
)

// TestServeAnswersOverUDP starts the command on a small namespace, plain,
// with -score, with -recursive and with both, and sends real UDP queries for a static
// host, a synthesized disposable name and a name no zone holds: each reply
// carries the RCODE and answer count the authority gives the same query in
// process.
func TestServeAnswersOverUDP(t *testing.T) {
	for _, mode := range []struct {
		name string
		args []string
	}{
		{"plain", nil},
		{"scored", []string{"-score", "-window", "1h"}},
		{"recursive", []string{"-recursive"}},
		{"scored-recursive", []string{"-score", "-window", "1h", "-recursive"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:0", "-zones", "40", "-disposable-zones", "8"}, mode.args...)
			svc, err := start(args)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := svc.Close(); err != nil {
					t.Error(err)
				}
			}()
			disposable := "0.0.0.0.1.0.0.4e.abc123.avqs.mcafee.com"
			if svc.eng != nil {
				if svc.example == "" {
					t.Fatal("-score mined no disposable name to advertise")
				}
				disposable = svc.example
			}
			conn, err := net.Dial("udp", svc.srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			for i, q := range []struct {
				name     string
				rcode    dnsmsg.RCode
				answered bool
			}{
				{"www.google.com", dnsmsg.RCodeNoError, true},
				{disposable, dnsmsg.RCodeNoError, true},
				{"no-such-host.example.invalid", dnsmsg.RCodeNXDomain, false},
			} {
				query, err := dnsmsg.NewQuery(uint16(0x100+i), q.name, dnsmsg.TypeA).Encode()
				if err != nil {
					t.Fatal(err)
				}
				want, err := svc.auth.HandleWire(query)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(query); err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 4096)
				_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, err := conn.Read(buf)
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				got, err := dnsmsg.Decode(buf[:n])
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				in, err := dnsmsg.Decode(want)
				if err != nil {
					t.Fatal(err)
				}
				if got.Header.ID != uint16(0x100+i) || got.Header.RCode != in.Header.RCode || len(got.Answers) != len(in.Answers) {
					t.Errorf("%s over UDP: id %#x, %v, %d answers; in process: %v, %d answers",
						q.name, got.Header.ID, got.Header.RCode, len(got.Answers), in.Header.RCode, len(in.Answers))
				}
				if got.Header.RCode != q.rcode || (len(got.Answers) > 0) != q.answered {
					t.Errorf("%s: %v with %d answers, want %v, answered %v",
						q.name, got.Header.RCode, len(got.Answers), q.rcode, q.answered)
				}
			}
		})
	}
}

// TestServeScoreNeedsAWindow: -score with a re-score interval of 0 or less
// is refused before anything starts, since a miner that is never re-scored
// would hold every name it notes for the life of the process.
func TestServeScoreNeedsAWindow(t *testing.T) {
	for _, window := range []string{"0", "-1s"} {
		svc, err := start([]string{"-addr", "127.0.0.1:0", "-score", "-window", window})
		if err == nil {
			svc.Close()
			t.Fatalf("-score -window %s: started, want an error", window)
		}
		if !strings.Contains(err.Error(), "-window") {
			t.Errorf("-score -window %s: %v, want it to name -window", window, err)
		}
	}
}

// TestServeRecursiveRefusesListeners: -recursive with more than one
// listener is refused before anything starts, since a resolver shard is one
// listener's state.
func TestServeRecursiveRefusesListeners(t *testing.T) {
	svc, err := start([]string{"-addr", "127.0.0.1:0", "-recursive", "-listeners", "2"})
	if err == nil {
		svc.Close()
		t.Fatal("-recursive -listeners 2: started, want an error")
	}
	if !strings.Contains(err.Error(), "-listeners") {
		t.Errorf("-recursive -listeners 2: %v, want it to name -listeners", err)
	}
}

// TestServeRecursiveRefusesTCP: -recursive with -tcp is refused before
// anything starts, since TCP connections are answered on goroutines of
// their own, beside the listener's.
func TestServeRecursiveRefusesTCP(t *testing.T) {
	svc, err := start([]string{"-addr", "127.0.0.1:0", "-recursive", "-tcp"})
	if err == nil {
		svc.Close()
		t.Fatal("-recursive -tcp: started, want an error")
	}
	if !strings.Contains(err.Error(), "-tcp") {
		t.Errorf("-recursive -tcp: %v, want it to name -tcp", err)
	}
}

// TestServeCloseFlushesQlog: every query answered before Close is in the
// -qlog file once Close returns, each under its own event id, and the
// -report file is written, naming the command. With -recursive the events
// are the resolver's: the first query of the name is a miss, every later
// one a cache hit.
func TestServeCloseFlushesQlog(t *testing.T) {
	for _, mode := range []struct {
		name string
		args []string
	}{
		{"plain", nil},
		{"recursive", []string{"-recursive"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			checkCloseFlushesQlog(t, mode.args...)
		})
	}
}

func checkCloseFlushesQlog(t *testing.T, extra ...string) {
	dir := t.TempDir()
	qpath, rpath := filepath.Join(dir, "q.jsonl"), filepath.Join(dir, "r.json")
	svc, err := start(append([]string{"-addr", "127.0.0.1:0", "-zones", "40", "-disposable-zones", "8",
		"-qlog", qpath, "-qlog-sample", "1", "-report", rpath}, extra...))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", svc.srv.Addr())
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 25
	buf := make([]byte, 4096)
	for i := 0; i < n; i++ {
		query, err := dnsmsg.NewQuery(uint16(i+1), "www.google.com", dnsmsg.TypeA).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(query); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	evs, err := jsonl.Open[qlog.Event](qpath)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{}
	for _, ev := range evs {
		ids[ev.ID] = true
	}
	if len(evs) != n || len(ids) != n {
		t.Fatalf("-qlog holds %d events with %d distinct ids, want %d answered queries", len(evs), len(ids), n)
	}
	if len(extra) > 0 {
		sort.Slice(evs, func(i, j int) bool { return evs[i].ID < evs[j].ID })
		for i, ev := range evs {
			if hit := ev.Outcome == qlog.OutcomeHit; hit != (i > 0) || ev.CacheHit != hit {
				t.Errorf("query %d of the name: outcome %v, cache hit %v; want a miss, then hits", i, ev.Outcome, ev.CacheHit)
			}
		}
	}
	data, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Command != "dnsnoise-serve" {
		t.Errorf("report command = %q, want dnsnoise-serve", rep.Command)
	}
}
