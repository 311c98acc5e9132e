package labelgen

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/stats"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestTokenAlphabetAndLength(t *testing.T) {
	r := rng(1)
	for _, n := range []int{1, 5, 26, 63} {
		tok := AppendToken([]byte("x."), r, n)
		if len(tok) != 2+n || string(tok[:2]) != "x." {
			t.Errorf("AppendToken(x., %d) = %q", n, tok)
		}
		for _, c := range string(tok[2:]) {
			if !strings.ContainsRune(base36, c) {
				t.Errorf("AppendToken produced %q outside base36", c)
			}
		}
	}
	if len(AppendToken(nil, r, 0)) != 0 || len(AppendToken(nil, r, -3)) != 0 {
		t.Error("AppendToken with n<=0 should append nothing")
	}
}

func TestHumanWordShape(t *testing.T) {
	w := HumanWord(rng(3), 6)
	if len(w) != 6 {
		t.Fatalf("len = %d", len(w))
	}
	for i, c := range w {
		if i%2 == 0 && !strings.ContainsRune(consonants, c) {
			t.Errorf("pos %d: %q not a consonant", i, c)
		}
		if i%2 == 1 && !strings.ContainsRune(vowels, c) {
			t.Errorf("pos %d: %q not a vowel", i, c)
		}
	}
	if HumanWord(rng(3), 0) != "" {
		t.Error("HumanWord(0) should be empty")
	}
}

// split cuts an appended name back into its labels.
func split(name []byte) []string { return strings.Split(string(name), ".") }

func TestESoftNameGrammar(t *testing.T) {
	labels := split(AppendESoftName(nil, rng(4), 3302068))
	if len(labels) != 6 {
		t.Fatalf("labels = %v", labels)
	}
	if !regexp.MustCompile(`^load-0-p-\d{2}$`).MatchString(labels[0]) {
		t.Errorf("load label = %q", labels[0])
	}
	if !regexp.MustCompile(`^up-\d+$`).MatchString(labels[1]) {
		t.Errorf("up label = %q", labels[1])
	}
	if !regexp.MustCompile(`^mem-\d+-\d+-0-p-\d{2}$`).MatchString(labels[2]) {
		t.Errorf("mem label = %q", labels[2])
	}
	if !regexp.MustCompile(`^swap-\d+-\d+-0-p-\d{2}$`).MatchString(labels[3]) {
		t.Errorf("swap label = %q", labels[3])
	}
	if labels[4] != "3302068" {
		t.Errorf("device label = %q, want 3302068", labels[4])
	}
	full := strings.Join(labels, ".") + ".device.trans.manage.esoft.com"
	if err := dnsname.Validate(full); err != nil {
		t.Errorf("generated name invalid: %v", err)
	}
}

func TestMcAfeeNameGrammar(t *testing.T) {
	labels := split(AppendMcAfeeName(nil, rng(5)))
	if len(labels) != 9 {
		t.Fatalf("labels = %v", labels)
	}
	want := []string{"0", "0", "0", "0", "1", "0", "0", "4e"}
	for i, w := range want {
		if labels[i] != w {
			t.Errorf("label %d = %q, want %q", i, labels[i], w)
		}
	}
	if len(labels[8]) != 26 {
		t.Errorf("hash token len = %d, want 26", len(labels[8]))
	}
	// Like the paper's example, full names under avqs.mcafee.com carry 11
	// periods.
	full := strings.Join(labels, ".") + ".avqs.mcafee.com"
	if strings.Count(full, ".") != 11 {
		t.Errorf("periods = %d, want 11 (%s)", strings.Count(full, "."), full)
	}
}

func TestGoogleIPv6NameGrammar(t *testing.T) {
	labels := split(AppendGoogleIPv6Name(nil, rng(6)))
	if len(labels) != 6 {
		t.Fatalf("labels = %v", labels)
	}
	if !regexp.MustCompile(`^p[1-4]$`).MatchString(labels[0]) {
		t.Errorf("probe label = %q", labels[0])
	}
	if !strings.HasPrefix(labels[1], "a") || len(labels[1]) != 13 {
		t.Errorf("token label = %q", labels[1])
	}
	if labels[4] != "i1" && labels[4] != "i2" && labels[4] != "s1" {
		t.Errorf("probe id = %q", labels[4])
	}
	if labels[5] != "ds" && labels[5] != "v4" {
		t.Errorf("net label = %q", labels[5])
	}
}

func TestDNSBLNameIsReversedOctets(t *testing.T) {
	labels := split(AppendDNSBLName(nil, rng(7)))
	if len(labels) != 4 {
		t.Fatalf("labels = %v", labels)
	}
	for _, l := range labels {
		var v int
		if _, err := sscanInt(l, &v); err != nil || v < 0 || v > 255 {
			t.Errorf("octet %q out of range", l)
		}
	}
}

func sscanInt(s string, v *int) (int, error) {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errNotDigit
		}
		n = n*10 + int(s[i]-'0')
	}
	*v = n
	return 1, nil
}

var errNotDigit = regexpError("not a digit")

type regexpError string

func (e regexpError) Error() string { return string(e) }

func TestTrackingName(t *testing.T) {
	labels := split(AppendTrackingName(nil, rng(8)))
	if len(labels) != 2 || len(labels[0]) != 12 {
		t.Errorf("labels = %v", labels)
	}
	if !strings.HasPrefix(labels[1], "b") {
		t.Errorf("shard = %q", labels[1])
	}
}

func TestCDNShardPoolIsBounded(t *testing.T) {
	r := rng(9)
	seen := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		labels := CDNShardName(r, 50)
		seen[strings.Join(labels, ".")] = true
	}
	// 50 shard numbers x 8 letters = at most 400 distinct names.
	if len(seen) > 400 {
		t.Errorf("CDN pool produced %d distinct names, want <= 400", len(seen))
	}
	if got := CDNShardName(r, 0); len(got) != 2 {
		t.Errorf("poolSize floor failed: %v", got)
	}
}

func TestHostNameMostlyCommon(t *testing.T) {
	r := rng(10)
	common := 0
	for i := 0; i < 1000; i++ {
		h := HostName(r)
		if h == "www" || h == "mail" || h == "api" || h == "cdn" || h == "static" {
			common++
		}
		if err := dnsname.Validate(h + ".example.com"); err != nil {
			t.Fatalf("HostName produced invalid label %q: %v", h, err)
		}
	}
	if common == 0 {
		t.Error("HostName never produced a common label in 1000 draws")
	}
}

// The load-bearing statistical property: algorithmic tokens must have
// clearly higher Shannon entropy than human-ish labels, because the miner's
// tree-structure features depend on that separation.
func TestEntropySeparation(t *testing.T) {
	r := rng(11)
	var algo, human []float64
	for i := 0; i < 300; i++ {
		algo = append(algo, stats.ShannonEntropy(string(AppendToken(nil, r, 16))))
		human = append(human, stats.ShannonEntropy(HumanWord(r, 8)))
	}
	if am, hm := stats.Mean(algo), stats.Mean(human); am <= hm+0.5 {
		t.Errorf("entropy separation too small: algo %.2f vs human %.2f", am, hm)
	}
}

// Property: all generators produce valid DNS labels for any seed.
func TestGeneratorsProduceValidLabels(t *testing.T) {
	f := func(seed int64) bool {
		r := rng(seed)
		// The append forms join their labels with dots, so a stray dot
		// inside a label shows as a wrong label count. They extend dst.
		sets := []struct {
			labels []string
			want   int
		}{
			{split(AppendESoftName(nil, r, r.Uint32())), 6},
			{split(AppendMcAfeeName(nil, r)), 9},
			{split(AppendGoogleIPv6Name(nil, r)), 6},
			{split(AppendDNSBLName(nil, r)), 4},
			{split(AppendTrackingName([]byte("kept."), r)), 3},
			{CDNShardName(r, 100), 2},
		}
		for _, set := range sets {
			if len(set.labels) != set.want {
				return false
			}
			for _, l := range set.labels {
				if len(l) == 0 || len(l) > 63 || strings.Contains(l, ".") {
					return false
				}
			}
		}
		if sets[4].labels[0] != "kept" {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Determinism: the same seed yields the same names.
func TestDeterminism(t *testing.T) {
	a := AppendESoftName(nil, rng(42), 7)
	b := AppendESoftName(nil, rng(42), 7)
	if string(a) != string(b) {
		t.Errorf("same seed produced different names: %s vs %s", a, b)
	}
}
