// Package slab hands out values carved from fixed-size chunks: one
// allocation per chunk rather than per value, for stores that keep what
// they are given until they are dropped whole.
package slab

import "unsafe"

// ChunkBytes is the size class a chunk fits: 8 KiB. Since Go 1.22 the
// allocator puts an 8-byte header (the type) in front of an object larger
// than 512 bytes that holds pointers, and counts it in the object's size:
// 8 192 bytes of such elements take the 9 472-byte class, 13.5 % of it
// waste. A chunk is therefore cut to ChunkBytes less that header, which the
// 8 KiB class holds whether the elements have pointers or not.
const ChunkBytes = 8 << 10

// mallocHeader is the allocator's type header on an object with pointers.
const mallocHeader = 8

// PerChunk is how many values of T a chunk holds.
func PerChunk[T any]() int {
	var v T
	return (ChunkBytes - mallocHeader) / int(unsafe.Sizeof(v))
}

// Slab hands out zeroed values carved from chunks of PerChunk values. A
// chunk is never grown or copied, so a value's address is stable; chunks
// are released together, when the slab's owner is. The zero value is ready.
type Slab[T any] struct{ free []T }

// New returns a zeroed value.
func (sl *Slab[T]) New() *T { return &sl.Run(1)[0] }

// Run returns n contiguous zeroed values, capped at n. When the current
// chunk has fewer than n left, the run starts a new chunk and the old one's
// tail goes unused; a run longer than a chunk is a chunk of its own.
func (sl *Slab[T]) Run(n int) []T {
	if len(sl.free) < n {
		sl.free = make([]T, max(n, PerChunk[T]()))
	}
	run := sl.free[:n:n]
	sl.free = sl.free[n:]
	return run
}
