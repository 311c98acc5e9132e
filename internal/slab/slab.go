// Package slab hands out values carved from fixed-size chunks: one
// allocation per chunk rather than per value, for stores that keep what
// they are given until they are dropped whole.
package slab

import "unsafe"

// ChunkBytes is the size of a chunk: 8 KiB, which the allocator hands out
// without rounding up.
const ChunkBytes = 8 << 10

// Slab hands out zeroed values carved from chunks of ChunkBytes. A chunk is
// never grown or copied, so a value's address is stable; chunks are released
// together, when the slab's owner is. The zero value is ready.
type Slab[T any] struct{ free []T }

// New returns a zeroed value.
func (sl *Slab[T]) New() *T { return &sl.Run(1)[0] }

// Run returns n contiguous zeroed values, capped at n. When the current
// chunk has fewer than n left, the run starts a new chunk and the old one's
// tail goes unused; a run longer than a chunk is a chunk of its own.
func (sl *Slab[T]) Run(n int) []T {
	if len(sl.free) < n {
		sl.free = make([]T, max(n, ChunkBytes/int(unsafe.Sizeof(sl.free[0]))))
	}
	run := sl.free[:n:n]
	sl.free = sl.free[n:]
	return run
}
