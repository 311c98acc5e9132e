package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/labelgen"
	"dnsnoise/internal/resolver"
)

func obWith(rr dnsmsg.RR, rcode dnsmsg.RCode, cat cache.Category) resolver.Observation {
	return resolver.Observation{QName: rr.Name, RR: rr, RCode: rcode, Category: cat}
}

func TestClassifyTaxonomy(t *testing.T) {
	tests := []struct {
		name string
		ob   resolver.Observation
		want Class
	}{
		{
			name: "canonical A",
			ob:   obWith(dnsmsg.RR{Name: "www.example.com", Type: dnsmsg.TypeA, RData: dnsmsg.IPv4(198, 18, 0, 1)}, dnsmsg.RCodeNoError, cache.CategoryOther),
			want: Canonical,
		},
		{
			name: "nxdomain unwanted",
			ob:   resolver.Observation{QName: "missing.example.com", RCode: dnsmsg.RCodeNXDomain},
			want: Unwanted,
		},
		{
			name: "servfail unwanted",
			ob:   resolver.Observation{QName: "broken.example.com", RCode: dnsmsg.RCodeServFail},
			want: Unwanted,
		},
		{
			name: "loopback verdict overloaded",
			ob:   obWith(dnsmsg.RR{Name: "tok.avqs.mcafee.com", Type: dnsmsg.TypeA, RData: dnsmsg.IPv4(127, 0, 4, 2)}, dnsmsg.RCodeNoError, cache.CategoryDisposable),
			want: Overloaded,
		},
		{
			name: "TXT overloaded",
			ob:   obWith(dnsmsg.RR{Name: "x.example.com", Type: dnsmsg.TypeTXT, RData: dnsmsg.Text("payload")}, dnsmsg.RCodeNoError, cache.CategoryOther),
			want: Overloaded,
		},
		{
			name: "reversed IP overloaded even with routable answer",
			ob:   obWith(dnsmsg.RR{Name: "4.3.2.1.zen.bl.test", Type: dnsmsg.TypeA, RData: dnsmsg.IPv4(198, 18, 0, 1)}, dnsmsg.RCodeNoError, cache.CategoryDisposable),
			want: Overloaded,
		},
		{
			name: "telemetry with routable answer stays canonical",
			ob:   obWith(dnsmsg.RR{Name: "load-0-p-01.up-99.dev.esoft.com", Type: dnsmsg.TypeA, RData: dnsmsg.IPv4(198, 18, 0, 9)}, dnsmsg.RCodeNoError, cache.CategoryDisposable),
			want: Canonical,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Classify(tt.ob); got != tt.want {
				t.Errorf("Classify = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLooksReversedIP(t *testing.T) {
	tests := []struct {
		give string
		want bool
	}{
		{give: "4.3.2.1.bl.test", want: true},
		{give: "255.0.0.0.bl.test", want: true},
		{give: "256.1.2.3.bl.test", want: false},
		{give: "01.2.3.4.bl.test", want: false}, // leading zero = token
		{give: "a.b.c.d.bl.test", want: false},
		{give: "1.2.3.bl", want: false}, // too shallow
	}
	for _, tt := range tests {
		if got := looksReversedIP(tt.give); got != tt.want {
			t.Errorf("looksReversedIP(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestTaxonomyCounterOverlap(t *testing.T) {
	var tc TaxonomyCounter
	tap := tc.Tap()
	// Disposable traffic split across overloaded (reputation verdict) and
	// canonical (telemetry with routable answers) — the paper's claim that
	// disposable is broader than overloaded.
	tap.Observe(obWith(dnsmsg.RR{Name: "tok1.avqs.test", Type: dnsmsg.TypeA, RData: dnsmsg.IPv4(127, 0, 0, 1)}, dnsmsg.RCodeNoError, cache.CategoryDisposable))
	tap.Observe(obWith(dnsmsg.RR{Name: "up-1.dev.esoft.test", Type: dnsmsg.TypeA, RData: dnsmsg.IPv4(198, 18, 0, 2)}, dnsmsg.RCodeNoError, cache.CategoryDisposable))
	tap.Observe(obWith(dnsmsg.RR{Name: "www.ok.test", Type: dnsmsg.TypeA, RData: dnsmsg.IPv4(198, 18, 0, 3)}, dnsmsg.RCodeNoError, cache.CategoryOther))
	tap.Observe(resolver.Observation{QName: "typo.ok.test", RCode: dnsmsg.RCodeNXDomain})

	if got := tc.Share(Unwanted); got != 0.25 {
		t.Errorf("unwanted share = %v, want 0.25", got)
	}
	if got := tc.DisposableRecall(Overloaded); got != 0.5 {
		t.Errorf("overloaded disposable recall = %v, want 0.5", got)
	}
	if got := tc.DisposableRecall(Canonical); got != 0.5 {
		t.Errorf("canonical disposable recall = %v, want 0.5", got)
	}
}

// buildZones fabricates labeled zones: disposable ones carry algorithmic
// child labels, benign ones carry human host labels.
func buildZones(seed int64, nDisp, nBenign, perZone int) []LabeledZoneNames {
	rng := rand.New(rand.NewSource(seed))
	var out []LabeledZoneNames
	for i := 0; i < nDisp; i++ {
		z := LabeledZoneNames{Zone: fmt.Sprintf("sig%d.vendor.com", i), Disposable: true}
		for j := 0; j < perZone; j++ {
			z.Names = append(z.Names, string(labelgen.AppendToken(nil, rng, 22))+"."+z.Zone)
		}
		out = append(out, z)
	}
	for i := 0; i < nBenign; i++ {
		z := LabeledZoneNames{Zone: fmt.Sprintf("company%d.com", i)}
		for j := 0; j < perZone; j++ {
			z.Names = append(z.Names, labelgen.HostName(rng)+"."+z.Zone)
		}
		out = append(out, z)
	}
	return out
}

func TestYadavDetectsAlgorithmicZones(t *testing.T) {
	train := buildZones(1, 20, 20, 15)
	var y YadavDetector
	if err := y.Fit(train); err != nil {
		t.Fatal(err)
	}
	test := buildZones(2, 10, 10, 15)
	var tp, fn, fp, tn int
	for _, z := range test {
		got, _, err := y.Detect(z.Zone, z.Names)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case z.Disposable && got:
			tp++
		case z.Disposable && !got:
			fn++
		case !z.Disposable && got:
			fp++
		default:
			tn++
		}
	}
	if tpr := float64(tp) / float64(tp+fn); tpr < 0.9 {
		t.Errorf("TPR = %.2f on clean token zones, want >= 0.9", tpr)
	}
	if fp > 1 {
		t.Errorf("false positives = %d on human zones", fp)
	}
}

// The paper's criticism in miniature ("Disposable domains are not only
// generated by an algorithm, but also have low cache hit rate"): a
// name-only detector cannot tell one-time algorithmic names from REUSED
// algorithmic names. A CDN shard zone — machine-generated labels that are
// heavily cached and decidedly not disposable — gets flagged anyway.
func TestYadavBlindToCaching(t *testing.T) {
	train := buildZones(3, 20, 20, 15)
	var y YadavDetector
	if err := y.Fit(train); err != nil {
		t.Fatal(err)
	}
	var cdn []string
	for i := 0; i < 30; i++ {
		cdn = append(cdn, fmt.Sprintf("e%04d.g.cdn-x.net", i*37))
	}
	got, score, err := y.Detect("g.cdn-x.net", cdn)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Errorf("expected the name-only detector to flag algorithmic CDN shards (score %.2f)", score)
	}
	// The flag is a disposability false positive: those names are reused
	// constantly. Only caching behaviour separates them — which is what
	// the miner's CHR features add (see the experiments baseline harness).
}

func TestYadavFitErrors(t *testing.T) {
	var y YadavDetector
	if err := y.Fit(nil); !errors.Is(err, ErrNoTraining) {
		t.Errorf("Fit(nil) = %v", err)
	}
	onlyPos := buildZones(4, 3, 0, 5)
	if err := y.Fit(onlyPos); !errors.Is(err, ErrNoTraining) {
		t.Errorf("Fit(single class) = %v", err)
	}
	if _, _, err := y.Detect("x.com", []string{"a.x.com"}); !errors.Is(err, ErrNoTraining) {
		t.Errorf("Detect unfitted = %v", err)
	}
}

func TestBigramJaccard(t *testing.T) {
	if got := bigramJaccard("mail", "mail"); got != 1 {
		t.Errorf("identical labels = %v, want 1", got)
	}
	if got := bigramJaccard("ab", "cd"); got != 0 {
		t.Errorf("disjoint labels = %v, want 0", got)
	}
	if got := bigramJaccard("a", "b"); got != 1 {
		t.Errorf("single-char labels (no bigrams) = %v, want 1", got)
	}
}

func TestClassString(t *testing.T) {
	if Canonical.String() != "canonical" || Overloaded.String() != "overloaded" ||
		Unwanted.String() != "unwanted" || Class(99).String() != "unknown" {
		t.Error("Class.String mismatch")
	}
}
