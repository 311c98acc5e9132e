package dnsname

import (
	"errors"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	tests := []struct {
		give string
		want string
	}{
		{give: "WWW.Example.COM", want: "www.example.com"},
		{give: "example.com.", want: "example.com"},
		{give: "EXAMPLE.COM.", want: "example.com"},
		{give: "", want: ""},
		{give: ".", want: ""},
		// Case folding is ASCII-only (RFC 4343 §3): other bytes stay.
		{give: "ÀÈÌ.COM.", want: "ÀÈÌ.com"},
		{give: "X\x80Y", want: "x\x80y"},
	}
	for _, tt := range tests {
		if got := Normalize(tt.give); got != tt.want {
			t.Errorf("Normalize(%q) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

// TestNormalizeMatchesReference: the single-pass implementation must agree
// byte-for-byte with a plain byte-by-byte lowering of A-Z and TrimSuffix on
// arbitrary input, including non-ASCII and bytes that are not UTF-8.
func TestNormalizeMatchesReference(t *testing.T) {
	ref := func(name string) string {
		b := []byte(name)
		for i, c := range b {
			if 'A' <= c && c <= 'Z' {
				b[i] = c + 'a' - 'A'
			}
		}
		return strings.TrimSuffix(string(b), ".")
	}
	for _, name := range []string{
		"", ".", "..", "a", "A", "a.", "A.", "aBc.DeF.com", "already.normal.com",
		"trailing.dot.", "MIXED.case.", "Ünïcode.ÉXAMPLE.com", "ünïcode.com",
		"123.456", "UPPER", "x.Y.z.W.", "ÀÈÌ.com.", "x\x80Y", "\xffA.",
	} {
		if got, want := Normalize(name), ref(name); got != want {
			t.Errorf("Normalize(%q) = %q, reference = %q", name, got, want)
		}
	}
	f := func(name string) bool { return Normalize(name) == ref(name) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestNormalizeZeroAlloc: already-normalized names — the hot-path case —
// and bare trailing-dot names must not allocate; a mixed-case ASCII name
// pays exactly one allocation.
func TestNormalizeZeroAlloc(t *testing.T) {
	for _, name := range []string{"host1.example.com", "host1.example.com.", "", "a"} {
		name := name
		if allocs := testing.AllocsPerRun(200, func() { Normalize(name) }); allocs != 0 {
			t.Errorf("Normalize(%q) allocated %.1f times per op, want 0", name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { Normalize("HOST1.Example.COM.") }); allocs > 1 {
		t.Errorf("mixed-case Normalize allocated %.1f times per op, want <= 1", allocs)
	}
}

func TestValidate(t *testing.T) {
	long := strings.Repeat("a", 64)
	tests := []struct {
		name    string
		give    string
		wantErr error
	}{
		{name: "ok", give: "www.example.com", wantErr: nil},
		{name: "empty", give: "", wantErr: ErrEmpty},
		{name: "empty label", give: "a..b", wantErr: ErrBadLabel},
		{name: "long label", give: long + ".com", wantErr: ErrBadLabel},
		{name: "long name", give: strings.Repeat("abcdefgh.", 30) + "com", wantErr: ErrNameLength},
		{name: "single label", give: "localhost", wantErr: nil},
		{name: "token bytes ok", give: "load-0-p-01.up-1852280.example.com", wantErr: nil},
		{name: "leading dot", give: ".com", wantErr: ErrBadLabel},
		{name: "trailing dot", give: "example.com.", wantErr: ErrBadLabel},
		{name: "bare dot", give: ".", wantErr: ErrBadLabel},
		{name: "63-octet last label", give: "a." + long[:63], wantErr: nil},
		{name: "64-octet last label", give: "a." + long, wantErr: ErrBadLabel},
		{name: "253 octets", give: strings.Repeat("abcdefg.", 31) + "abcde", wantErr: nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Validate(tt.give)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate(%q) = %v, want %v", tt.give, err, tt.wantErr)
			}
		})
	}
}

// TestValidateZeroAlloc: trace replay validates every name it reads.
func TestValidateZeroAlloc(t *testing.T) {
	for _, name := range []string{"www.example.com", "a..b", "0.0.0.0.1.0.0.4e.135jg5e1pd7s4735ftrqweufm5.avqs.mcafee.com"} {
		if allocs := testing.AllocsPerRun(200, func() { _ = Validate(name) }); allocs != 0 {
			t.Errorf("Validate(%q) allocated %.1f times per op, want 0", name, allocs)
		}
	}
}

func TestLabels(t *testing.T) {
	got := Labels("a.b.c")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Labels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Labels[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if Labels("") != nil {
		t.Error("Labels(\"\") should be nil")
	}
}

func TestCountLabels(t *testing.T) {
	tests := []struct {
		give string
		want int
	}{
		{give: "", want: 0},
		{give: "com", want: 1},
		{give: "example.com", want: 2},
		{give: "a.b.c.d.e", want: 5},
	}
	for _, tt := range tests {
		if got := CountLabels(tt.give); got != tt.want {
			t.Errorf("CountLabels(%q) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestNLD(t *testing.T) {
	const name = "p2.a22.i1.ds.ipv6-exp.l.google.com"
	tests := []struct {
		n    int
		want string
	}{
		{n: 0, want: ""},
		{n: 1, want: "com"},
		{n: 2, want: "google.com"},
		{n: 3, want: "l.google.com"},
		{n: 8, want: name},
		{n: 99, want: name},
	}
	for _, tt := range tests {
		if got := NLD(name, tt.n); got != tt.want {
			t.Errorf("NLD(%q, %d) = %q, want %q", name, tt.n, got, tt.want)
		}
	}
}

// Property: NLD(name, n) is a suffix of name with exactly min(n, labels)
// labels.
func TestNLDProperty(t *testing.T) {
	f := func(rawLabels []uint8, n uint8) bool {
		if len(rawLabels) == 0 {
			return true
		}
		labels := make([]string, 0, len(rawLabels))
		for _, b := range rawLabels {
			labels = append(labels, strings.Repeat("x", int(b%5)+1))
		}
		name := strings.Join(labels, ".")
		k := int(n%10) + 1
		got := NLD(name, k)
		if !strings.HasSuffix(name, got) {
			return false
		}
		wantLabels := k
		if len(labels) < k {
			wantLabels = len(labels)
		}
		return CountLabels(got) == wantLabels
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParentLeftLabel(t *testing.T) {
	if got := Parent("a.b.c"); got != "b.c" {
		t.Errorf("Parent = %q, want b.c", got)
	}
	if got := Parent("c"); got != "" {
		t.Errorf("Parent(single) = %q, want \"\"", got)
	}
}

func TestIsSubdomainOf(t *testing.T) {
	tests := []struct {
		child, parent string
		want          bool
	}{
		{child: "a.example.com", parent: "example.com", want: true},
		{child: "example.com", parent: "example.com", want: true},
		{child: "badexample.com", parent: "example.com", want: false},
		{child: "example.com", parent: "a.example.com", want: false},
		{child: "a.example.com", parent: "", want: false},
	}
	for _, tt := range tests {
		if got := IsSubdomainOf(tt.child, tt.parent); got != tt.want {
			t.Errorf("IsSubdomainOf(%q, %q) = %v, want %v", tt.child, tt.parent, got, tt.want)
		}
	}
}

func TestETLD(t *testing.T) {
	s := DefaultSuffixes()
	tests := []struct {
		give string
		want string
	}{
		{give: "www.example.com", want: "com"},
		{give: "www.example.co.uk", want: "co.uk"},
		{give: "a.b.example.com.cn", want: "com.cn"},
		{give: "host.no-ip.com", want: "no-ip.com"},
		{give: "com", want: "com"},
		{give: "weird.unknowntld", want: "unknowntld"},
		{give: "x.y.eu-west-1.compute.amazonaws.com", want: "eu-west-1.compute.amazonaws.com"},
	}
	for _, tt := range tests {
		if got := s.ETLD(tt.give); got != tt.want {
			t.Errorf("ETLD(%q) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestETLDPlusOne(t *testing.T) {
	s := DefaultSuffixes()
	tests := []struct {
		give string
		want string
	}{
		{give: "www.example.com", want: "example.com"},
		{give: "a.b.example.co.uk", want: "example.co.uk"},
		{give: "host.dyn.no-ip.com", want: "dyn.no-ip.com"},
		{give: "com", want: ""},
		{give: "co.uk", want: ""},
		{give: "example.com", want: "example.com"},
		{give: "vm.zone1.eu-west-1.compute.amazonaws.com", want: "zone1.eu-west-1.compute.amazonaws.com"},
	}
	for _, tt := range tests {
		if got := s.ETLDPlusOne(tt.give); got != tt.want {
			t.Errorf("ETLDPlusOne(%q) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestETLDEmpty(t *testing.T) {
	s := DefaultSuffixes()
	if got := s.ETLD(""); got != "" {
		t.Errorf("ETLD(\"\") = %q, want \"\"", got)
	}
	if got := s.ETLDPlusOne(""); got != "" {
		t.Errorf("ETLDPlusOne(\"\") = %q, want \"\"", got)
	}
}

func TestNewSuffixesSkipsComments(t *testing.T) {
	s := NewSuffixes([]string{"// a comment", "", "com", "*.ck"})
	if got := s.ETLD("shop.example.com"); got != "com" {
		t.Errorf("ETLD = %q, want com", got)
	}
	if got := s.ETLD("www.city.ck"); got != "city.ck" {
		t.Errorf("wildcard ETLD = %q, want city.ck", got)
	}
}

// Property: ETLDPlusOne(x) is always a suffix of x and a subdomain of
// ETLD(x), with exactly one more label than the eTLD.
func TestETLDPlusOneProperty(t *testing.T) {
	s := DefaultSuffixes()
	names := []string{
		"www.google.com", "avqs.mcafee.com", "x.y.z.esoft.com",
		"deep.chain.of.labels.example.co.uk", "a.b.c.d.e.f.g.sytes.net",
		"one.two.example.org", "cdn1.akamai.net",
	}
	for _, name := range names {
		e1 := s.ETLDPlusOne(name)
		if e1 == "" {
			t.Errorf("ETLDPlusOne(%q) empty", name)
			continue
		}
		if !IsSubdomainOf(name, e1) {
			t.Errorf("%q not subdomain of its e2LD %q", name, e1)
		}
		etld := s.ETLD(name)
		if CountLabels(e1) != CountLabels(etld)+1 {
			t.Errorf("e2LD %q should have one more label than eTLD %q", e1, etld)
		}
	}
}

func TestDepth(t *testing.T) {
	if got := Depth("a.example.com"); got != 3 {
		t.Errorf("Depth = %d, want 3 (paper Figure 8 convention)", got)
	}
	if got := Depth("i.1.a.example.com"); got != 5 {
		t.Errorf("Depth = %d, want 5", got)
	}
}

// TestHash: FNV-1a, and the same over a name's bytes as over the name — a
// stripe chosen by one must be the stripe found by the other.
func TestHash(t *testing.T) {
	f := func(name string) bool {
		h := fnv.New64a()
		h.Write([]byte(name))
		return Hash(name) == h.Sum64() && Hash([]byte(name)) == h.Sum64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
