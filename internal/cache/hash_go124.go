//go:build go1.24

package cache

import "hash/maphash"

// comparableHash hashes a key other than a Key or a string.
func comparableHash[K comparable](seed maphash.Seed, k K) uint64 {
	return maphash.Comparable(seed, k)
}
