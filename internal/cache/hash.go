package cache

import (
	"hash/maphash"

	"dnsnoise/internal/dnsmsg"
)

// hasherFor returns the hash an LRU[K, V] files its keys under. A Key hashes
// its name's bytes and its type, so GetName finds it from a name read off
// the wire without spelling it; a string hashes as its bytes; any other key
// as maphash.Comparable hashes it (comparableHash).
func hasherFor[K comparable](seed maphash.Seed) func(K) uint64 {
	var h any
	switch any(*new(K)).(type) {
	case Key:
		h = func(k Key) uint64 { return maphash.String(seed, k.Name) ^ typeMix(k.Type) }
	case string:
		h = func(k string) uint64 { return maphash.String(seed, k) }
	default:
		return func(k K) uint64 { return comparableHash(seed, k) }
	}
	return h.(func(K) uint64)
}

// typeMix folds a query type into a name's hash: the multiply spreads it
// into the top bits, which pick the home bucket and the fingerprint.
func typeMix(t dnsmsg.Type) uint64 { return uint64(t) * 0x9E3779B97F4A7C15 }
