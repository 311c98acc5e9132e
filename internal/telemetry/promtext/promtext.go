// Package promtext is a strict parser for the Prometheus text exposition
// format (version 0.0.4), used by tests to validate /metrics payloads: metric-name and label-name charsets,
// label-value quoting, HELP/TYPE placement and uniqueness, sample grouping
// under the TYPE header, and cumulative histogram buckets ending in
// le="+Inf" with matching _sum/_count.
package promtext

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseLabels scans a `{k="v",...}` block, enforcing the quoting rules:
// values are double-quoted with only \\, \", and \n escapes.
func ParseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	i := 0
	for i < len(s) {
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return nil, fmt.Errorf("label %q missing '='", s[i:])
		}
		name := s[i : i+j]
		if !labelRe.MatchString(name) {
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

// ParseSample parses one sample line (no comments).
func ParseSample(line string) (Sample, error) {
	var sm Sample
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		end := strings.LastIndexByte(line, '}')
		if end < i {
			return sm, fmt.Errorf("unbalanced braces in %q", line)
		}
		sm.Name = line[:i]
		labels, err := ParseLabels(line[i+1 : end])
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
	if !nameRe.MatchString(sm.Name) {
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

// SeriesKey identifies one labeled series, ignoring the histogram's
// per-bucket le label.
func SeriesKey(sm Sample) string {
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

// Parse applies the structural rules to a full payload and returns the
// samples, or the first violation.
func Parse(out string) ([]Sample, error) {
	var (
		samples   []Sample
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
				if !nameRe.MatchString(name) {
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
				if !nameRe.MatchString(name) {
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
		sm, err := ParseSample(line)
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

// CheckHistograms validates every histogram series — le on all buckets,
// cumulative counts, a final +Inf bucket equal to _count — and returns
// how many series it validated.
func CheckHistograms(samples []Sample) (int, error) {
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
			key := SeriesKey(base)
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
			h := get(SeriesKey(base))
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
