package cache

import "math/bits"

// index finds a key's arena slot: an open-addressed table, probed linearly,
// whose entries pack a key's fingerprint — the top 32 bits of its hash —
// above its slot number plus one; 0 is an empty bucket. A key's home bucket
// is its fingerprint's top bits, so the table never hashes a key again:
// growth re-files entries by their fingerprints, and a slot keeps its key's
// fingerprint to find its own entry on removal. Removal shifts the entries
// after the gap back into it instead of leaving a tombstone, so the table's
// size is set by the most entries it has held at once, not by how many came
// and went: it doubles when an insertion would fill more than three quarters
// of it, which stops at the first power of two that holds the cache's
// capacity at that load, and it never shrinks.
type index struct {
	entries []uint64
	n       int   // occupied buckets
	shift   uint8 // 32 - log2(len(entries)): a fingerprint's home is fp >> shift
}

// minIndex is the bucket count a new index starts with.
const minIndex = 8

func newIndex() index { return index{entries: make([]uint64, minIndex), shift: 32 - 3} }

// fingerprint is the part of a key's hash the index keeps.
func fingerprint(h uint64) uint32 { return uint32(h >> 32) }

func pack(fp uint32, slot int32) uint64 { return uint64(fp)<<32 | uint64(slot+1) }

// home is the bucket where fp's probe starts.
func (x *index) home(fp uint32) int { return int(fp >> x.shift) }

// probe returns the slot of the first entry from bucket b on that carries
// fingerprint fp, and the bucket after it, where the next call resumes; the
// slot is nilIdx once an empty bucket ends the run. A caller compares the
// slot's key, since distinct keys may share a fingerprint.
func (x *index) probe(fp uint32, b int) (int32, int) {
	mask := len(x.entries) - 1
	for ; ; b = (b + 1) & mask {
		e := x.entries[b]
		if e == 0 {
			return nilIdx, b
		}
		if uint32(e>>32) == fp {
			return int32(uint32(e)) - 1, (b + 1) & mask
		}
	}
}

// insert files slot under fp. The caller knows the key is not in the table.
func (x *index) insert(fp uint32, slot int32) {
	if 4*(x.n+1) > 3*len(x.entries) {
		x.resize(2 * len(x.entries))
	}
	x.put(pack(fp, slot))
	x.n++
}

// put stores entry e in the first empty bucket from its home on.
func (x *index) put(e uint64) {
	mask := len(x.entries) - 1
	b := x.home(uint32(e >> 32))
	for x.entries[b] != 0 {
		b = (b + 1) & mask
	}
	x.entries[b] = e
}

// resize re-files every entry into a table of size buckets.
func (x *index) resize(size int) {
	old := x.entries
	x.entries = make([]uint64, size)
	x.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e != 0 {
			x.put(e)
		}
	}
}

// remove drops slot's entry, filed under fp, and closes the gap: each entry
// after it in the run whose home does not lie between the gap and itself
// moves back into the gap, which then opens where it came from.
func (x *index) remove(fp uint32, slot int32) {
	mask := len(x.entries) - 1
	gap, e := x.home(fp), pack(fp, slot)
	for x.entries[gap] != e {
		gap = (gap + 1) & mask
	}
	for b := (gap + 1) & mask; x.entries[b] != 0; b = (b + 1) & mask {
		if h := x.home(uint32(x.entries[b] >> 32)); (b-h)&mask >= (b-gap)&mask {
			x.entries[gap] = x.entries[b]
			gap = b
		}
	}
	x.entries[gap] = 0
	x.n--
}
