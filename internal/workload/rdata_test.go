package workload

import (
	"fmt"
	"testing"
)

// TestSynthesizedRDataMatchesFmt pins the strconv-built addresses to the
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
	check := func(kind string, v uint64, got, want string) {
		if got != want {
			t.Fatalf("%s(%#x) = %q, fmt spelled it %q", kind, v, got, want)
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
	if got, want := syntheticIPv4(12345, 3), oldSynthetic4(12345+3*0x9E3779B9); got != want {
		t.Errorf("syntheticIPv4 with salt = %q, want %q", got, want)
	}
	if got, want := syntheticIPv6(12345, 3), oldSynthetic6(12345+3*0x9E3779B9); got != want {
		t.Errorf("syntheticIPv6 with salt = %q, want %q", got, want)
	}
}
