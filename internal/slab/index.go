package slab

import "math/bits"

// Nil is the number of no value: what Probe returns once a run ends.
const Nil int32 = -1

// Index files values by number under their keys' hashes: an open-addressed
// table, probed linearly, whose entries pack a key's fingerprint — the top
// 32 bits of its hash — above the value's number plus one; 0 is an empty
// bucket. A key's home bucket is its fingerprint's top bits, so the table
// never hashes a key again: growth re-files entries by their fingerprints,
// and a store that keeps each key's fingerprint beside it can remove the
// key's entry, or file it in another table, without hashing it. Removal
// shifts the entries after the gap back into it instead of leaving a
// tombstone, so the table's size is set by the most entries it has held at
// once, not by how many came and went: it doubles when an insertion would
// fill more than three quarters of it, and it never shrinks.
//
// The table holds numbers, not keys: a caller compares the key stored at a
// number Probe returns, since distinct keys may share a fingerprint. The
// zero value is an empty table.
type Index struct {
	entries []uint64
	n       int  // occupied buckets
	shift   uint // 32 - log2(len(entries)): a fingerprint's home is fp >> shift
}

// minIndex is the bucket count a table starts with.
const minIndex = 8

// Fingerprint is the part of a key's hash the table keeps.
func Fingerprint(h uint64) uint32 { return uint32(h >> 32) }

func pack(fp uint32, i int32) uint64 { return uint64(fp)<<32 | uint64(i+1) }

// Len returns the number of entries filed.
func (x *Index) Len() int { return x.n }

// Buckets returns the table's size.
func (x *Index) Buckets() int { return len(x.entries) }

// Home is the bucket where fp's probe starts.
func (x *Index) Home(fp uint32) int { return int(fp >> x.shift) }

// Probe returns the number of the first entry from bucket b on that carries
// fingerprint fp, and the bucket after it, where the next call resumes; the
// number is Nil once an empty bucket ends the run. A lookup starts at
// Home(fp):
//
//	for i, b := x.Probe(fp, x.Home(fp)); i != Nil; i, b = x.Probe(fp, b) {
//		// compare the key stored at i
//	}
func (x *Index) Probe(fp uint32, b int) (int32, int) {
	mask := len(x.entries) - 1
	for ; mask >= 0; b = (b + 1) & mask {
		e := x.entries[b]
		if e == 0 {
			break
		}
		if uint32(e>>32) == fp {
			return int32(uint32(e)) - 1, (b + 1) & mask
		}
	}
	return Nil, b
}

// Insert files number i under fp. The caller knows its key is not filed.
func (x *Index) Insert(fp uint32, i int32) {
	if 4*(x.n+1) > 3*len(x.entries) {
		x.resize(max(2*len(x.entries), minIndex))
	}
	x.put(pack(fp, i))
	x.n++
}

// Reserve grows the table, when it is smaller, to the size n entries grow
// it to: so many insertions then never resize it.
func (x *Index) Reserve(n int) {
	size := len(x.entries)
	for 4*n > 3*size {
		size = max(2*size, minIndex)
	}
	if size > len(x.entries) {
		x.resize(size)
	}
}

// put stores entry e in the first empty bucket from its home on.
func (x *Index) put(e uint64) {
	mask := len(x.entries) - 1
	b := x.Home(uint32(e >> 32))
	for x.entries[b] != 0 {
		b = (b + 1) & mask
	}
	x.entries[b] = e
}

// resize re-files every entry into a table of size buckets.
func (x *Index) resize(size int) {
	old := x.entries
	x.entries = make([]uint64, size)
	x.shift = uint(32 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e != 0 {
			x.put(e)
		}
	}
}

// Remove drops number i's entry, filed under fp, and closes the gap: each
// entry after it in the run whose home does not lie between the gap and
// itself moves back into the gap, which then opens where it came from.
func (x *Index) Remove(fp uint32, i int32) {
	mask := len(x.entries) - 1
	gap, e := x.Home(fp), pack(fp, i)
	for x.entries[gap] != e {
		gap = (gap + 1) & mask
	}
	for b := (gap + 1) & mask; x.entries[b] != 0; b = (b + 1) & mask {
		if h := x.Home(uint32(x.entries[b] >> 32)); (b-h)&mask >= (b-gap)&mask {
			x.entries[gap] = x.entries[b]
			gap = b
		}
	}
	x.entries[gap] = 0
	x.n--
}
