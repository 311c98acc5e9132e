// Package labelgen generates domain-name labels. It reproduces the literal
// name grammars of the paper's Figure 6 — eSoft system telemetry, McAfee
// file-reputation hashes, Google's ipv6-exp measurement names — plus DNSBL
// reversed-octet queries, tracking-beacon tokens, and plausible human-chosen
// labels for non-disposable zones.
//
// Every generator draws from a caller-supplied *rand.Rand so traces are
// reproducible from a seed.
package labelgen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

const (
	base36     = "0123456789abcdefghijklmnopqrstuvwxyz"
	consonants = "bcdfghjklmnpqrstvwz"
	vowels     = "aeiouy"
)

// AppendToken appends an n-character lowercase base-36 token to dst: the
// high-entropy building block of most disposable names.
func AppendToken(dst []byte, rng *rand.Rand, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, base36[rng.Intn(len(base36))])
	}
	return dst
}

// HumanWord returns a pronounceable word of roughly n characters by
// alternating consonants and vowels — a stand-in for the hand-picked labels
// of non-disposable zones (www, mail, shop, static1, ...). Low entropy by
// construction.
func HumanWord(rng *rand.Rand, n int) string {
	if n <= 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			sb.WriteByte(consonants[rng.Intn(len(consonants))])
		} else {
			sb.WriteByte(vowels[rng.Intn(len(vowels))])
		}
	}
	return sb.String()
}

// The disposable grammars below append the labels left of the zone (deepest
// first, dot-joined, no trailing dot) to dst: a generated day mints one such
// name per fresh disposable query, so they write into the caller's buffer
// with strconv and leave the one string to the caller.

// AppendESoftName reproduces Figure 6(i): system telemetry smuggled into
// labels, e.g.
// "load-0-p-01.up-1852280.mem-...-p-50.swap-...-p-44.3302068.1222092134".
// The device and session IDs identify a pseudo-device so repeated reports
// from one device share the trailing labels.
func AppendESoftName(dst []byte, rng *rand.Rand, deviceID uint32) []byte {
	load := rng.Intn(100)
	up := rng.Intn(2_000_000)
	mem1, mem2 := rng.Intn(500_000_000), rng.Intn(600_000_000)
	memp := rng.Intn(60)
	swap1, swap2 := rng.Intn(300_000_000), rng.Intn(600_000_000)
	swapp := rng.Intn(60)
	session := rng.Uint32()
	dst = appendPad2(append(dst, "load-0-p-"...), load)
	dst = appendInt(append(dst, ".up-"...), up)
	dst = appendInt(append(dst, ".mem-"...), mem1)
	dst = appendInt(append(dst, '-'), mem2)
	dst = appendPad2(append(dst, "-0-p-"...), memp)
	dst = appendInt(append(dst, ".swap-"...), swap1)
	dst = appendInt(append(dst, '-'), swap2)
	dst = appendPad2(append(dst, "-0-p-"...), swapp)
	dst = strconv.AppendUint(append(dst, '.'), uint64(deviceID), 10)
	return strconv.AppendUint(append(dst, '.'), uint64(session), 10)
}

func appendInt(dst []byte, v int) []byte { return strconv.AppendInt(dst, int64(v), 10) }

// appendPad2 appends v, which is not negative, as %02d spells it.
func appendPad2(dst []byte, v int) []byte {
	if v < 10 {
		dst = append(dst, '0')
	}
	return appendInt(dst, v)
}

// AppendMcAfeeName reproduces Figure 6(ii): Global Threat Intelligence file
// reputation queries, e.g. "0.0.0.0.1.0.0.4e.135jg5e1pd7s4735ftrqweufm5".
// The per-file hash token makes each queried name effectively unique.
func AppendMcAfeeName(dst []byte, rng *rand.Rand) []byte {
	return AppendToken(append(dst, "0.0.0.0.1.0.0.4e."...), rng, 26)
}

// AppendGoogleIPv6Name reproduces Figure 6(iii): the ipv6-exp measurement
// names, e.g. "p2.a22a43lt5rwfg.ihg5ki5i6q3cfn3n.191742.i1.ds". The i1/i2/s1
// and ds/v4 variants mirror the experiment's probe matrix.
func AppendGoogleIPv6Name(dst []byte, rng *rand.Rand) []byte {
	probes := [...]string{"i1", "i2", "s1"}
	nets := [...]string{"ds", "v4"}
	dst = appendInt(append(dst, 'p'), rng.Intn(4)+1)
	dst = AppendToken(append(dst, ".a"...), rng, 12)
	dst = AppendToken(append(dst, '.'), rng, 16)
	dst = appendInt(append(dst, '.'), rng.Intn(900_000)+100_000)
	dst = append(append(dst, '.'), probes[rng.Intn(len(probes))]...)
	return append(append(dst, '.'), nets[rng.Intn(len(nets))]...)
}

// AppendDNSBLName generates a reversed-IPv4 blocklist query label set
// ("4.3.2.1" for 1.2.3.4), the classic overloaded-DNS pattern the paper
// groups with disposable traffic.
func AppendDNSBLName(dst []byte, rng *rand.Rand) []byte {
	for i := 0; i < 4; i++ {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = appendInt(dst, rng.Intn(256))
	}
	return dst
}

// AppendTrackingName generates a cookie-tracking / ad-beacon style name: one
// wide token plus a short shard label, e.g. "x7k2m9q4w1z8.b3".
func AppendTrackingName(dst []byte, rng *rand.Rand) []byte {
	dst = AppendToken(dst, rng, 12)
	return appendInt(append(dst, ".b"...), rng.Intn(8))
}

// CDNShardName generates an Akamai-style content shard label pair, e.g.
// "e1234.g". These names are automatically generated but REUSED across
// clients: the paper found only 0.6% of disposable zones were CDNs, so the
// generator deliberately produces a small recurring pool (controlled by
// poolSize) rather than unbounded fresh names.
func CDNShardName(rng *rand.Rand, poolSize int) []string {
	if poolSize < 1 {
		poolSize = 1
	}
	return []string{
		fmt.Sprintf("e%d", rng.Intn(poolSize)),
		string(rune('a' + rng.Intn(8))),
	}
}

// HostName returns a typical non-disposable host label: drawn mostly from a
// fixed popular set, occasionally a short human word with a numeric suffix.
func HostName(rng *rand.Rand) string {
	common := []string{
		"www", "mail", "smtp", "imap", "pop", "ftp", "ns1", "ns2", "api",
		"cdn", "static", "img", "news", "blog", "shop", "m", "login",
		"search", "video", "music", "maps", "docs", "drive", "chat",
	}
	if rng.Float64() < 0.8 {
		return common[rng.Intn(len(common))]
	}
	w := HumanWord(rng, rng.Intn(5)+3)
	if rng.Float64() < 0.4 {
		return fmt.Sprintf("%s%d", w, rng.Intn(10))
	}
	return w
}

// ZoneName returns a plausible registrable-domain left label for seeding
// simulated zones ("vexora", "talbin3", ...).
func ZoneName(rng *rand.Rand) string {
	w := HumanWord(rng, rng.Intn(6)+4)
	if rng.Float64() < 0.2 {
		return fmt.Sprintf("%s%d", w, rng.Intn(100))
	}
	return w
}
