package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"dnsnoise/internal/dnsmsg"
)

// TestSynthesizedRDataMatchesFmt pins the synthesized addresses — IPv4 built
// arithmetically as four bytes, IPv6 spelled with strconv — to the
// fmt.Sprintf spellings they replaced, byte for byte, over every octet and
// hex group the formats can produce: recorded traces, pDNS stores and the
// benchmark digests all hold these strings.
func TestSynthesizedRDataMatchesFmt(t *testing.T) {
	oldSynthetic4 := func(v uint64) string {
		return fmt.Sprintf("198.%d.%d.%d", 18+(v>>16)%2, (v>>8)%256, v%256)
	}
	oldSynthetic6 := func(v uint64) string {
		return fmt.Sprintf("2001:db8:0:0:0:0:%x:%x", (v>>16)%65536, v%65536)
	}
	oldSignal4 := func(sn uint64) string {
		return fmt.Sprintf("127.0.%d.%d", (sn>>8)%256, sn%256)
	}
	oldSignal6 := func(sn uint64) string {
		return fmt.Sprintf("100:0:0:0:0:0:%x:%x", (sn>>8)%65536, sn%65536)
	}
	check := func(kind string, v uint64, rdata dnsmsg.RData, want string) {
		typ := dnsmsg.TypeA
		if kind[len(kind)-1] == '6' {
			typ = dnsmsg.TypeAAAA
		}
		if got := rdata.Format(typ); got != want {
			t.Fatalf("%s(%#x) = %q, fmt spelled it %q", kind, v, got, want)
		}
		if back, err := dnsmsg.ParseRData(typ, want); err != nil || back != rdata {
			t.Fatalf("%s(%#x) = %v, but %q parses to %v, %v", kind, v, rdata, want, back, err)
		}
	}
	// 17 bits cover both second octets and every value of the last two, and
	// every serial-number octet pair twice over.
	for v := uint64(0); v < 1<<17; v++ {
		check("syntheticIPv4", v, syntheticIPv4(v, 0), oldSynthetic4(v))
		check("signalIPv4", v, signalIPv4(v), oldSignal4(v))
	}
	// Every value of each hex group, against a few values of the other.
	for g := uint64(0); g < 1<<16; g++ {
		for _, other := range []uint64{0, 0x9, 0xa0, 0xfff, 0xffff} {
			for _, v := range []uint64{other<<16 | g, g<<16 | other} {
				check("syntheticIPv6", v, syntheticIPv6(v, 0), oldSynthetic6(v))
			}
			for _, sn := range []uint64{other<<16 | g, g<<8 | other&0xff} {
				check("signalIPv6", sn, signalIPv6(sn), oldSignal6(sn))
			}
		}
	}
	// The salt only moves v.
	check("syntheticIPv4", 12345, syntheticIPv4(12345, 3), oldSynthetic4(12345+3*0x9E3779B9))
	check("syntheticIPv6", 12345, syntheticIPv6(12345, 3), oldSynthetic6(12345+3*0x9E3779B9))

	// Whole 64-bit name hashes, as makeSynth feeds them in, against the
	// strconv speller (rdataPair) the arithmetic replaced.
	rdataPair := func(prefix string, a, b uint64) string {
		return prefix + strconv.FormatUint(a, 10) + "." + strconv.FormatUint(b, 10)
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 10000; i++ {
		h, salt := rng.Uint64(), uint64(i%3)
		v := h + salt*0x9E3779B9
		prefix := "198.18."
		if (v>>16)%2 == 1 {
			prefix = "198.19."
		}
		check("syntheticIPv4", h, syntheticIPv4(h, salt), rdataPair(prefix, (v>>8)%256, v%256))
		check("signalIPv4", h, signalIPv4(h), rdataPair("127.0.", (h>>8)%256, h%256))
	}
}
