// Package dnsname provides domain-name manipulation used throughout the
// disposable-zone pipeline: normalization, label access, N-th level domain
// (NLD) extraction, and effective top-level domain (eTLD) computation against
// an embedded public-suffix snapshot.
//
// Terminology follows Section III-B of the paper: for
// d = "a.example.com", TLD(d) = "com", 2LD(d) = "example.com", and
// 3LD(d) = "a.example.com". The effective TLD captures delegation, not mere
// lexical splitting, so 2LD("www.example.co.uk") = "example.co.uk".
package dnsname

import (
	"errors"
	"strings"
	"unicode/utf8"
)

// Errors reported by name validation.
var (
	ErrEmpty      = errors.New("dnsname: empty domain name")
	ErrBadLabel   = errors.New("dnsname: invalid label")
	ErrNameLength = errors.New("dnsname: name exceeds 253 octets")
)

// MaxNameLength is the maximum presentation-format name length accepted,
// per RFC 1035 (255 octets on the wire, 253 in presentation format).
const MaxNameLength = 253

// MaxLabelLength is the maximum length of a single label per RFC 1035.
const MaxLabelLength = 63

// Normalize lower-cases a domain name and strips a single trailing dot.
// It performs no validation; see Validate.
//
// Normalize sits on the per-query hot path, so it is written to allocate
// nothing for already-normalized input (the overwhelmingly common case for
// generated and replayed workloads): a single scan classifies the name, a
// bare trailing dot is stripped by reslicing, and only a name that actually
// contains an upper-case ASCII letter pays one allocation for the lowered
// copy. Names with non-ASCII bytes take the full Unicode path, preserving
// strings.ToLower semantics.
func Normalize(name string) string {
	hasUpper := false
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			// Rare: defer to the Unicode-correct (allocating) path.
			name = strings.ToLower(name)
			return strings.TrimSuffix(name, ".")
		}
		if 'A' <= c && c <= 'Z' {
			hasUpper = true
		}
	}
	if hasUpper {
		return normalizeASCIIUpper(name)
	}
	if len(name) > 0 && name[len(name)-1] == '.' {
		return name[:len(name)-1]
	}
	return name
}

// normalizeASCIIUpper lowers an all-ASCII name containing at least one
// upper-case letter and strips a single trailing dot, in one pass with one
// allocation.
func normalizeASCIIUpper(name string) string {
	n := len(name)
	if name[n-1] == '.' {
		n--
	}
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}

// Validate checks that name is a plausible DNS name in presentation format:
// non-empty, at most 253 octets, with labels of 1 to 63 octets each.
// It accepts names already passed through Normalize. Characters are not
// restricted to LDH because disposable domains routinely carry arbitrary
// token bytes; only structural rules are enforced.
func Validate(name string) error {
	if name == "" {
		return ErrEmpty
	}
	if len(name) > MaxNameLength {
		return ErrNameLength
	}
	for {
		dot := strings.IndexByte(name, '.')
		if dot < 0 {
			dot = len(name)
		}
		if dot == 0 || dot > MaxLabelLength {
			return ErrBadLabel
		}
		if dot == len(name) {
			return nil
		}
		name = name[dot+1:]
	}
}

// Labels returns the labels of a normalized name, left to right.
// The empty name yields nil.
func Labels(name string) []string {
	if name == "" {
		return nil
	}
	return strings.Split(name, ".")
}

// CountLabels returns the number of labels without allocating.
func CountLabels(name string) int {
	if name == "" {
		return 0
	}
	return strings.Count(name, ".") + 1
}

// NLD returns the n rightmost labels of name joined by dots (the "N-th level
// domain"). If name has fewer than n labels, the whole name is returned.
// n <= 0 yields the empty string.
func NLD(name string, n int) string {
	if n <= 0 || name == "" {
		return ""
	}
	idx := len(name)
	for i := 0; i < n; i++ {
		dot := strings.LastIndexByte(name[:idx], '.')
		if dot < 0 {
			return name
		}
		idx = dot
	}
	return name[idx+1:]
}

// Parent returns the name with its leftmost label removed, or "" when the
// name has a single label.
func Parent(name string) string {
	dot := strings.IndexByte(name, '.')
	if dot < 0 {
		return ""
	}
	return name[dot+1:]
}

// LeftLabel returns the leftmost label of name.
func LeftLabel(name string) string {
	dot := strings.IndexByte(name, '.')
	if dot < 0 {
		return name
	}
	return name[:dot]
}

// Hash is 64-bit FNV-1a over name, a string or its bytes: the one hash behind
// the lock stripes (pdns, chrstat, the streaming miner's pending sets) and the
// synthetic rdata of the simulated namespace. It is small enough for the
// compiler to inline into the per-observation paths that stripe with it.
func Hash[S string | []byte](name S) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// IsSubdomainOf reports whether child, a string or its bytes, is equal to,
// or a strict subdomain of, parent. Both must be normalized.
func IsSubdomainOf[S string | []byte](child S, parent string) bool {
	if parent == "" {
		return false
	}
	// A strict subdomain ends in "."+parent; compared in place, since
	// building that string would allocate for parents past 31 bytes.
	n := len(child) - len(parent)
	return n == 0 && string(child) == parent || n > 0 && child[n-1] == '.' && string(child[n:]) == parent
}

// Suffixes holds an effective-TLD ruleset. The zero value matches nothing;
// use DefaultSuffixes or NewSuffixes.
type Suffixes struct {
	exact    map[string]struct{}
	wildcard map[string]struct{} // "*.ck" stored as "ck"
}

// NewSuffixes builds a ruleset from public-suffix-style rules. Supported rule
// forms are exact suffixes ("com", "co.uk") and wildcards ("*.compute.amazonaws.com",
// meaning every direct child of the suffix is itself a suffix). Exception
// rules ("!city.kobe.jp") are intentionally unsupported: they do not occur in
// the embedded snapshot.
func NewSuffixes(rules []string) *Suffixes {
	s := &Suffixes{
		exact:    make(map[string]struct{}, len(rules)),
		wildcard: make(map[string]struct{}),
	}
	for _, r := range rules {
		r = Normalize(strings.TrimSpace(r))
		if r == "" || strings.HasPrefix(r, "//") {
			continue
		}
		if rest, ok := strings.CutPrefix(r, "*."); ok {
			s.wildcard[rest] = struct{}{}
			continue
		}
		s.exact[r] = struct{}{}
	}
	return s
}

// DefaultSuffixes returns the embedded effective-TLD snapshot. It includes
// common gTLDs and ccTLDs, multi-label country suffixes (co.uk, com.cn, ...),
// and — per the paper's correction to Mozilla's list — popular dynamic-DNS
// zones, whose children are independently operated.
func DefaultSuffixes() *Suffixes {
	return NewSuffixes(defaultSuffixRules)
}

// ETLD returns the effective TLD of a normalized name, or "" when the name
// itself is a suffix or no rule matches any of its parents. When no rule
// matches at all, the rightmost label is used (the implicit "*" rule of the
// public suffix algorithm).
func (s *Suffixes) ETLD(name string) string {
	if name == "" {
		return ""
	}
	// Walk suffixes from the most specific: try name itself first (a name
	// that IS a suffix has no registrable part).
	best := ""
	for probe := name; probe != ""; probe = Parent(probe) {
		if _, ok := s.exact[probe]; ok {
			best = probe
			break
		}
		if parent := Parent(probe); parent != "" {
			if _, ok := s.wildcard[parent]; ok {
				best = probe
				break
			}
		}
	}
	if best == "" {
		// Implicit rule: rightmost label.
		best = NLD(name, 1)
	}
	return best
}

// ETLDPlusOne returns the registrable domain ("effective 2LD"): the effective
// TLD plus one additional label. It returns "" when name is itself a suffix
// or has no label to add. The result is a suffix slice of name, not a copy.
func (s *Suffixes) ETLDPlusOne(name string) string {
	etld := s.ETLD(name)
	cut := len(name) - len(etld) - 1 // the dot left of the suffix
	if etld == "" || cut < 0 || name[cut] != '.' || name[cut+1:] != etld {
		return "" // name is the suffix itself (or, defensively, does not end in it)
	}
	return name[strings.LastIndexByte(name[:cut], '.')+1:]
}

// Depth returns the depth of name in the domain-name tree rooted at ".":
// the number of labels. (The paper's Figure 8 counts "a.example.com" as
// depth 3.)
func Depth(name string) int {
	return CountLabels(name)
}

// defaultSuffixRules is a compact snapshot of the public suffix list
// sufficient for the simulated namespace, extended with dynamic-DNS zones as
// the paper prescribes.
var defaultSuffixRules = []string{
	// Generic TLDs.
	"com", "net", "org", "edu", "gov", "mil", "int", "info", "biz", "name",
	"mobi", "pro", "aero", "coop", "museum", "travel", "jobs", "tel", "xxx",
	// Common ccTLDs (single label).
	"us", "ca", "mx", "de", "fr", "nl", "es", "it", "se", "no", "fi", "dk",
	"pl", "ru", "ch", "at", "be", "cz", "gr", "pt", "ie", "hu", "ro", "tr",
	"cn", "jp", "kr", "in", "tw", "hk", "sg", "my", "th", "vn", "id", "ph",
	"au", "nz", "br", "ar", "cl", "co", "pe", "ve", "za", "ng", "eg", "ke",
	"il", "sa", "ae", "ir", "ua", "by", "kz", "io", "me", "tv", "cc", "ws",
	"dk", "is", "lu", "sk", "si", "hr", "bg", "lt", "lv", "ee",
	// Multi-label country suffixes.
	"co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk", "sch.uk",
	"com.cn", "net.cn", "org.cn", "gov.cn", "edu.cn",
	"co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
	"com.au", "net.au", "org.au", "edu.au", "gov.au",
	"co.nz", "net.nz", "org.nz",
	"com.br", "net.br", "org.br",
	"co.in", "net.in", "org.in", "ac.in",
	"co.kr", "ne.kr", "or.kr",
	"com.tw", "org.tw", "net.tw",
	"com.hk", "org.hk", "net.hk",
	"com.sg", "org.sg", "net.sg",
	"com.mx", "org.mx", "net.mx",
	"com.ar", "net.ar", "org.ar",
	"co.za", "org.za", "net.za",
	"com.tr", "net.tr", "org.tr",
	"com.ru", "net.ru", "org.ru",
	// Cloud/hosting wildcard suffixes.
	"*.compute.amazonaws.com",
	"s3.amazonaws.com",
	"cloudfront.net",
	"herokuapp.com",
	"appspot.com",
	"github.io",
	// Dynamic DNS zones — the paper's correction to Mozilla's list: children
	// of these zones are delegated to unrelated parties.
	"dyndns.org", "dyndns.info", "dyndns.tv", "dnsalias.com", "dnsalias.net",
	"dnsalias.org", "homeip.net", "no-ip.com", "no-ip.org", "no-ip.info",
	"zapto.org", "hopto.org", "sytes.net", "ddns.net", "dynu.net",
	"afraid.org", "mine.nu", "homelinux.com", "homelinux.net", "homelinux.org",
	"homeunix.com", "homeunix.net", "homeunix.org", "selfip.com", "selfip.net",
	"selfip.org", "dontexist.com", "dontexist.net", "dontexist.org",
}
