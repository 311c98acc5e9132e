package promtext_test

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/promtext"
)

// exposition renders a registry holding one of each shape the CLIs expose: a
// counter, a gauge, a labelled series and a histogram.
func exposition(t testing.TB) string {
	t.Helper()
	r := telemetry.NewRegistry()
	r.Counter("resolver_queries_total", "Queries resolved.").Add(100)
	r.Gauge("clock_skew_s", "Skew.").Set(-0.25)
	for i, v := range []uint64{10, 20} {
		r.Counter(`resolver_shard_total{server="`+strconv.Itoa(i)+`"}`, "Per-shard queries.").Add(v)
	}
	h := r.Histogram(`resolver_latency_ns{server="0"}`, "Resolve latency.")
	for v := uint64(1); v < 1<<20; v <<= 3 {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestParseRoundTripsExposition(t *testing.T) {
	samples, err := promtext.Parse(exposition(t))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := promtext.CheckHistograms(samples); err != nil || n == 0 {
		t.Fatalf("CheckHistograms = %d, %v; want the latency histogram validated", n, err)
	}
	got := make(map[string]float64)
	for _, sm := range samples {
		got[promtext.SeriesKey(sm)+sm.Labels["le"]] = sm.Value
	}
	for key, want := range map[string]float64{
		"resolver_queries_total{}":                 100,
		"clock_skew_s{}":                           -0.25,
		"resolver_shard_total{server=0}":           10,
		"resolver_shard_total{server=1}":           20,
		"resolver_latency_ns_count{server=0}":      7,
		"resolver_latency_ns_bucket{server=0}+Inf": 7,
	} {
		if v, ok := got[key]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", key, v, ok, want)
		}
	}
}

func TestParseRejectsMalformedLines(t *testing.T) {
	const header = "# TYPE m counter\n"
	for what, payload := range map[string]string{
		"a line cut before its value":  header + "m",
		"a line cut inside its labels": header + `m{server="0`,
		"a bad float":                  header + "m 12abc\n",
		"two values":                   header + "m 1 2 3\n",
		"an unterminated label value":  header + `m{server="0} 1` + "\n",
		"an unquoted label value":      header + "m{server=0} 1\n",
		"a bad escape":                 header + `m{server="\t"} 1` + "\n",
		"le twice in one sample":       "# TYPE h histogram\n" + `h_bucket{le="1",le="2"} 1` + "\n",
		"a sample outside its TYPE":    header + "other 1\n",
		"TYPE twice":                   header + header,
		"an unknown TYPE":              "# TYPE m meter\n",
		"HELP without TYPE":            "# HELP m Things.\n",
	} {
		if samples, err := promtext.Parse(payload); err == nil {
			t.Errorf("%s: Parse accepted %q as %+v", what, payload, samples)
		}
	}
}

func TestCheckHistogramsRejectsBrokenBuckets(t *testing.T) {
	good := []string{`h_bucket{le="1"} 2`, `h_bucket{le="8"} 5`, `h_bucket{le="+Inf"} 6`, `h_sum 40`, `h_count 6`}
	check := func(lines []string) (int, error) {
		t.Helper()
		samples, err := promtext.Parse("# TYPE h histogram\n" + strings.Join(lines, "\n") + "\n")
		if err != nil {
			t.Fatal(err)
		}
		return promtext.CheckHistograms(samples)
	}
	if n, err := check(good); n != 1 || err != nil {
		t.Fatalf("a well-formed histogram: CheckHistograms = %d, %v", n, err)
	}
	with := func(i int, line string) []string {
		lines := append([]string(nil), good...)
		lines[i] = line
		return lines
	}
	for what, lines := range map[string][]string{
		"the same le twice":        with(1, `h_bucket{le="1"} 5`),
		"a bucket without le":      with(1, `h_bucket 5`),
		"a le that is no number":   with(1, `h_bucket{le="eight"} 5`),
		"counts that fall":         with(1, `h_bucket{le="8"} 1`),
		"+Inf different to _count": with(2, `h_bucket{le="+Inf"} 7`),
		"no +Inf bucket":           append(good[:2:2], good[3:]...),
	} {
		if n, err := check(lines); err == nil {
			t.Errorf("%s: CheckHistograms validated %d series", what, n)
		}
	}
}

// render spells a sample as an exposition line.
func render(sm promtext.Sample) string {
	names := make([]string, 0, len(sm.Labels))
	for name := range sm.Labels {
		names = append(names, name)
	}
	sort.Strings(names)
	escape := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	pairs := make([]string, len(names))
	for i, name := range names {
		pairs[i] = name + `="` + escape.Replace(sm.Labels[name]) + `"`
	}
	line := sm.Name
	if len(pairs) > 0 {
		line += "{" + strings.Join(pairs, ",") + "}"
	}
	return line + " " + strconv.FormatFloat(sm.Value, 'g', -1, 64)
}

// FuzzParse: no payload panics the parser or the histogram check, and every
// sample of a payload that parses survives being spelled out and parsed
// again.
func FuzzParse(f *testing.F) {
	good := exposition(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add("# TYPE h histogram\n" + `h_bucket{le="1",le="2"} 1` + "\n")
	f.Add("# HELP m Things.\n# TYPE m gauge\n" + `m{a="x\\y\"z\n",b=""} NaN` + "\n")
	f.Fuzz(func(t *testing.T, payload string) {
		samples, err := promtext.Parse(payload)
		if err != nil {
			return
		}
		_, _ = promtext.CheckHistograms(samples) // any verdict, no panic
		for _, sm := range samples {
			line := render(sm)
			back, err := promtext.ParseSample(line)
			if err != nil {
				t.Fatalf("sample %+v, spelled %q, does not parse: %v", sm, line, err)
			}
			sameValue := back.Value == sm.Value || math.IsNaN(back.Value) && math.IsNaN(sm.Value)
			if back.Name != sm.Name || !reflect.DeepEqual(back.Labels, sm.Labels) || !sameValue {
				t.Fatalf("sample %+v, spelled %q, parses back as %+v", sm, line, back)
			}
		}
	})
}
