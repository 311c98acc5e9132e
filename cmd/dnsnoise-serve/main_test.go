package main

import (
	"net"
	"testing"
	"time"

	"dnsnoise/internal/dnsmsg"
)

// TestServeAnswersOverUDP starts the command on a small namespace, plain and
// with -score, and sends real UDP queries for a static host, a synthesized
// disposable name and a name no zone holds: each reply carries the RCODE and
// answer count the authority gives the same query in process.
func TestServeAnswersOverUDP(t *testing.T) {
	for _, mode := range []struct {
		name string
		args []string
	}{
		{"plain", nil},
		{"scored", []string{"-score", "-window", "0"}},
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
