package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The strict reader of the Prometheus text exposition format (version
// 0.0.4) that the exposition tests hold WritePrometheus to: metric-name and
// label-name charsets, label-value quoting, HELP/TYPE placement and
// uniqueness, sample grouping under the TYPE header, and cumulative
// histogram buckets ending in le="+Inf" with matching _sum/_count.

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed exposition line.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parsePromLabels scans a `{k="v",...}` block, enforcing the quoting rules:
// values are double-quoted with only \\, \", and \n escapes.
func parsePromLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	i := 0
	for i < len(s) {
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return nil, fmt.Errorf("label %q missing '='", s[i:])
		}
		name := s[i : i+j]
		if !promLabelRe.MatchString(name) {
			return nil, fmt.Errorf("bad label name %q", name)
		}
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("label %s value not quoted", name)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("label %s: dangling escape", name)
				}
				switch s[i+1] {
				case '\\', '"':
					val.WriteByte(s[i+1])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %s: bad escape \\%c", name, s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("label %s: unterminated value", name)
		}
		if _, dup := labels[name]; dup {
			return nil, fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val.String()
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("expected ',' after label %s, got %q", name, s[i:])
			}
			i++
		}
	}
	return labels, nil
}

// parsePromSample parses one sample line (no comments).
func parsePromSample(line string) (promSample, error) {
	var sm promSample
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		end := strings.LastIndexByte(line, '}')
		if end < i {
			return sm, fmt.Errorf("unbalanced braces in %q", line)
		}
		sm.Name = line[:i]
		labels, err := parsePromLabels(line[i+1 : end])
		if err != nil {
			return sm, err
		}
		sm.Labels = labels
		rest = strings.TrimPrefix(line[end+1:], " ")
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return sm, fmt.Errorf("sample %q has no value", line)
		}
		sm.Name = line[:sp]
		sm.Labels = map[string]string{}
		rest = line[sp+1:]
	}
	if !promNameRe.MatchString(sm.Name) {
		return sm, fmt.Errorf("bad metric name %q", sm.Name)
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		return sm, fmt.Errorf("sample %q: want exactly one value, got %v", line, fields)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return sm, fmt.Errorf("sample %q: %v", line, err)
	}
	sm.Value = v
	return sm, nil
}

// promSeriesKey identifies one labeled series, ignoring the histogram's
// per-bucket le label.
func promSeriesKey(sm promSample) string {
	pairs := make([]string, 0, len(sm.Labels))
	for k, v := range sm.Labels {
		if k == "le" {
			continue
		}
		pairs = append(pairs, k+"="+v)
	}
	sort.Strings(pairs)
	return sm.Name + "{" + strings.Join(pairs, ",") + "}"
}

// parseProm applies the structural rules to a full payload and returns the
// samples, or the first violation.
func parseProm(out string) ([]promSample, error) {
	var (
		samples   []promSample
		helped    = map[string]bool{}
		typed     = map[string]string{} // base -> type
		sampled   = map[string]bool{}   // base has samples already
		current   string                // base the last TYPE header opened
		validType = map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
	)
	baseOf := func(name, typ string) string {
		if typ == "histogram" || typ == "summary" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if b := strings.TrimSuffix(name, suf); b != name && typed[b] == typ {
					return b
				}
			}
		}
		return name
	}
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				return nil, fmt.Errorf("malformed comment line %q", line)
			}
			kind, name := fields[1], fields[2]
			switch kind {
			case "HELP":
				if !promNameRe.MatchString(name) {
					return nil, fmt.Errorf("HELP for bad name %q", name)
				}
				if helped[name] {
					return nil, fmt.Errorf("duplicate HELP for %s", name)
				}
				if typed[name] != "" || sampled[name] {
					return nil, fmt.Errorf("HELP for %s after its TYPE or samples", name)
				}
				if len(fields) == 4 && strings.ContainsAny(fields[3], "\n") {
					return nil, fmt.Errorf("HELP for %s contains raw newline", name)
				}
				helped[name] = true
			case "TYPE":
				if !promNameRe.MatchString(name) {
					return nil, fmt.Errorf("TYPE for bad name %q", name)
				}
				if len(fields) != 4 || !validType[fields[3]] {
					return nil, fmt.Errorf("bad TYPE line %q", line)
				}
				if typed[name] != "" {
					return nil, fmt.Errorf("duplicate TYPE for %s", name)
				}
				if sampled[name] {
					return nil, fmt.Errorf("TYPE for %s after its samples", name)
				}
				typed[name] = fields[3]
				current = name
			default:
				return nil, fmt.Errorf("unknown comment keyword in %q", line)
			}
			continue
		}
		sm, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %q: %v", line, err)
		}
		base := sm.Name
		if typ := typed[current]; current != "" {
			if b := baseOf(sm.Name, typ); b == current {
				base = b
			}
		}
		if base != current {
			return nil, fmt.Errorf("sample %q outside its metric's TYPE group (current %s)", line, current)
		}
		sampled[base] = true
		samples = append(samples, sm)
	}
	for base := range helped {
		if typed[base] == "" {
			return nil, fmt.Errorf("HELP for %s without a TYPE", base)
		}
	}
	return samples, nil
}

// checkHistograms validates every histogram series — le on all buckets,
// cumulative counts, a final +Inf bucket equal to _count — and returns
// how many series it validated.
func checkHistograms(samples []promSample) (int, error) {
	type hist struct {
		lastLe   float64
		lastCum  float64
		infCount float64
		hasInf   bool
		count    float64
		hasCount bool
	}
	series := map[string]*hist{}
	get := func(key string) *hist {
		h := series[key]
		if h == nil {
			h = &hist{lastLe: math.Inf(-1)}
			series[key] = h
		}
		return h
	}
	for _, sm := range samples {
		switch {
		case strings.HasSuffix(sm.Name, "_bucket"):
			base := sm
			base.Name = strings.TrimSuffix(sm.Name, "_bucket")
			key := promSeriesKey(base)
			h := get(key)
			le, ok := sm.Labels["le"]
			if !ok {
				return 0, fmt.Errorf("bucket %s missing le label", key)
			}
			if le == "+Inf" {
				h.hasInf, h.infCount = true, sm.Value
				if sm.Value < h.lastCum {
					return 0, fmt.Errorf("%s: +Inf bucket %v below cumulative %v", key, sm.Value, h.lastCum)
				}
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return 0, fmt.Errorf("%s: le=%q not a float: %v", key, le, err)
			}
			if h.hasInf {
				return 0, fmt.Errorf("%s: bucket after +Inf", key)
			}
			if bound <= h.lastLe {
				return 0, fmt.Errorf("%s: le %v not increasing past %v", key, bound, h.lastLe)
			}
			if sm.Value < h.lastCum {
				return 0, fmt.Errorf("%s: bucket count %v not cumulative past %v", key, sm.Value, h.lastCum)
			}
			h.lastLe, h.lastCum = bound, sm.Value
		case strings.HasSuffix(sm.Name, "_count"):
			base := sm
			base.Name = strings.TrimSuffix(sm.Name, "_count")
			h := get(promSeriesKey(base))
			h.hasCount, h.count = true, sm.Value
		}
	}
	checked := 0
	for key, h := range series {
		if !h.hasInf && !h.hasCount {
			continue // a counter that happens to end in _count, etc.
		}
		if !h.hasInf || !h.hasCount {
			return 0, fmt.Errorf("%s: incomplete histogram (inf=%v count=%v)", key, h.hasInf, h.hasCount)
		}
		if h.infCount != h.count {
			return 0, fmt.Errorf("%s: +Inf bucket %v != _count %v", key, h.infCount, h.count)
		}
		checked++
	}
	return checked, nil
}

// promExposition renders a registry holding one of each shape the CLIs expose: a
// counter, a gauge, a labelled series and a histogram.
func promExposition(t testing.TB) string {
	t.Helper()
	r := NewRegistry()
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
	samples, err := parseProm(promExposition(t))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := checkHistograms(samples); err != nil || n == 0 {
		t.Fatalf("checkHistograms = %d, %v; want the latency histogram validated", n, err)
	}
	got := make(map[string]float64)
	for _, sm := range samples {
		got[promSeriesKey(sm)+sm.Labels["le"]] = sm.Value
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
		if samples, err := parseProm(payload); err == nil {
			t.Errorf("%s: parseProm accepted %q as %+v", what, payload, samples)
		}
	}
}

func TestCheckHistogramsRejectsBrokenBuckets(t *testing.T) {
	good := []string{`h_bucket{le="1"} 2`, `h_bucket{le="8"} 5`, `h_bucket{le="+Inf"} 6`, `h_sum 40`, `h_count 6`}
	check := func(lines []string) (int, error) {
		t.Helper()
		samples, err := parseProm("# TYPE h histogram\n" + strings.Join(lines, "\n") + "\n")
		if err != nil {
			t.Fatal(err)
		}
		return checkHistograms(samples)
	}
	if n, err := check(good); n != 1 || err != nil {
		t.Fatalf("a well-formed histogram: checkHistograms = %d, %v", n, err)
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
			t.Errorf("%s: checkHistograms validated %d series", what, n)
		}
	}
}

// renderPromSample spells a sample as an exposition line.
func renderPromSample(sm promSample) string {
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
	good := promExposition(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add("# TYPE h histogram\n" + `h_bucket{le="1",le="2"} 1` + "\n")
	f.Add("# HELP m Things.\n# TYPE m gauge\n" + `m{a="x\\y\"z\n",b=""} NaN` + "\n")
	f.Fuzz(func(t *testing.T, payload string) {
		samples, err := parseProm(payload)
		if err != nil {
			return
		}
		_, _ = checkHistograms(samples) // any verdict, no panic
		for _, sm := range samples {
			line := renderPromSample(sm)
			back, err := parsePromSample(line)
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
