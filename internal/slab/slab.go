// Package slab hands out values carved from fixed-size chunks: one
// allocation per chunk rather than per value, for stores that keep what
// they are given until they are dropped whole. A value's number, its
// position in the chunks, is what such a store links and files (Index)
// where a pointer would spend 8 bytes.
package slab

import (
	"math/bits"
	"unsafe"
)

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

// Slab hands out zeroed values carved from chunks of PerChunk values, and
// numbers them: value i is at offset i&mask of chunk i>>shift, the offset
// taking the fewest bits that hold PerChunk. A chunk is never grown or
// copied, so a value's address and number are stable; chunks are released
// together, when the slab's owner is. The zero value is ready.
type Slab[T any] struct {
	chunks [][]T // each of capacity PerChunk, filled in order
	shift  uint  // the offset's bits; 0 until the first chunk
}

// New returns a zeroed value.
func (sl *Slab[T]) New() *T {
	_, v := sl.Add()
	return v
}

// Add returns a zeroed value and its number.
func (sl *Slab[T]) Add() (int32, *T) {
	c := sl.room(1)
	*c = (*c)[:len(*c)+1]
	return int32((len(sl.chunks)-1)<<sl.shift | (len(*c) - 1)), &(*c)[len(*c)-1]
}

// Run returns n contiguous zeroed values, capped at n. When the last chunk
// has fewer than n left, the run starts a new chunk and the old one's tail
// goes unused; a run longer than a chunk is an allocation of its own, and
// takes no numbers.
func (sl *Slab[T]) Run(n int) []T {
	if n > PerChunk[T]() {
		return make([]T, n)
	}
	c := sl.room(n)
	*c = (*c)[:len(*c)+n]
	return (*c)[len(*c)-n : len(*c) : len(*c)]
}

// room returns the last chunk, a new one if that has fewer than n values
// left.
func (sl *Slab[T]) room(n int) *[]T {
	k := len(sl.chunks) - 1
	if k < 0 || cap(sl.chunks[k])-len(sl.chunks[k]) < n {
		per := PerChunk[T]()
		sl.shift = uint(bits.Len(uint(per - 1)))
		if k++; k >= 1<<(31-sl.shift) {
			panic("slab: a Slab's numbers are spent")
		}
		if sl.chunks == nil {
			sl.chunks = make([][]T, 0, 8) // a small store's list never grows
		}
		sl.chunks = append(sl.chunks, make([]T, 0, per))
	}
	return &sl.chunks[k]
}

// At returns value i.
func (sl *Slab[T]) At(i int32) *T {
	return &sl.chunks[i>>sl.shift][i&(1<<sl.shift-1)]
}

// All yields every value with its number, in the order Add handed them out.
func (sl *Slab[T]) All(yield func(int32, *T) bool) {
	for k, c := range sl.chunks {
		for j := range c {
			if !yield(int32(k<<sl.shift|j), &c[j]) {
				return
			}
		}
	}
}

// Adopt appends src's chunks to sl's, and src must not be used after: its
// value i is sl's value i+base from then on. sl's last chunk takes no
// further values, so the values of both keep their addresses.
func (sl *Slab[T]) Adopt(src *Slab[T]) (base int32) {
	if len(src.chunks) == 0 {
		return 0
	}
	if len(sl.chunks)+len(src.chunks) > 1<<(31-src.shift) {
		panic("slab: a Slab's numbers are spent")
	}
	base = int32(len(sl.chunks) << src.shift)
	sl.chunks = append(sl.chunks, src.chunks...)
	sl.shift = src.shift
	*src = Slab[T]{}
	return base
}
