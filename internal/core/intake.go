package core

import (
	"bytes"
	"math/bits"

	"dnsnoise/internal/dnsname"
)

// nameSet is one stripe's bare names of a window, each once: their bytes
// back to back in one buffer, their end offsets, and an open-addressed
// index of their ordinals keyed by dnsname.Hash. Reset keeps the buffers'
// capacity, so a set reused window after window allocates nothing once it
// has held a window's names, and a set never added to holds nothing; a
// window that fills under a quarter of them gives them back, so a flood
// sizes a set for two windows, not for good.
type nameSet struct {
	bytes []byte
	ends  []uint32 // name i is bytes[ends[i-1]:ends[i]]
	// index holds ordinal+1 per slot, 0 for an empty one; its length is a
	// power of two, at least twice the names', probed linearly from the
	// slot the hash's top bits pick.
	index []uint32
}

// len returns how many names the set holds.
func (s *nameSet) len() int { return len(s.ends) }

// name returns the i'th name added, a slice of the set's buffer.
func (s *nameSet) name(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.bytes[start:s.ends[i]]
}

// add adds name, whose dnsname.Hash is h, unless the set holds it. The set
// keeps a copy of the bytes.
func (s *nameSet) add(name []byte, h uint64) {
	if 2*(len(s.ends)+1) > len(s.index) {
		s.rehash(max(2*len(s.index), minIntake))
	}
	slot, mask := s.slot(h), len(s.index)-1
	for ; s.index[slot] != 0; slot = (slot + 1) & mask {
		if bytes.Equal(s.name(int(s.index[slot]-1)), name) {
			return
		}
	}
	s.bytes = append(grow(s.bytes, len(name)), name...)
	s.ends = append(grow(s.ends, 1), uint32(len(s.bytes)))
	s.index[slot] = uint32(len(s.ends))
}

// slot is where h's probe starts: the hash's top bits, since its low ones
// picked the stripe.
func (s *nameSet) slot(h uint64) int {
	return int(h >> (64 - bits.TrailingZeros(uint(len(s.index)))))
}

// rehash replaces the index with one of size slots.
func (s *nameSet) rehash(size int) {
	s.index = make([]uint32, size)
	mask := size - 1
	for i := range s.ends {
		slot := s.slot(dnsname.Hash(s.name(i)))
		for s.index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.index[slot] = uint32(i + 1)
	}
}

// reset empties the set. It keeps the buffers unless they have held more
// than minIntake names and the window just drained filled under a quarter
// of its bytes or of its ends.
func (s *nameSet) reset() {
	if cap(s.ends) > minIntake && (4*len(s.bytes) < cap(s.bytes) || 4*len(s.ends) < cap(s.ends)) {
		*s = nameSet{}
		return
	}
	if len(s.ends) > 0 {
		clear(s.index)
	}
	s.bytes, s.ends = s.bytes[:0], s.ends[:0]
}

// minIntake is the smallest buffer a set allocates, in elements.
const minIntake = 64

// grow returns buf with room for n more elements, doubling its capacity
// as often as that takes, so that a set reaches a window's size in a few
// steps and never by more than twice.
func grow[T byte | uint32](buf []T, n int) []T {
	if len(buf)+n <= cap(buf) {
		return buf
	}
	c := max(cap(buf), minIntake)
	for c < len(buf)+n {
		c *= 2
	}
	return append(make([]T, 0, c), buf...)
}
