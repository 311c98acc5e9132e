package cache

import (
	"sync/atomic"
	"time"
)

// Timer-wheel TTL expiry. Every filed slot sits on exactly one intrusive
// doubly-linked expiry list, chosen by its expiry tick (whole seconds since
// the wheel's base). The wheel is hierarchical:
//
//	level 0:  512 buckets × 1 s   — expiries within the next 512 s
//	level 1:  512 buckets × 512 s — expiries within the next ~3.6 days
//	overflow: one bucket          — everything beyond that
//
// Advance walks the level-0 bucket of each elapsed tick and reclaims every
// entry on it — no per-entry timestamp comparison, no scanning of live
// entries. Each time level 0 completes a lap (cur crosses a 512-tick
// boundary) the next level-1 bucket is cascaded down into level 0 and the
// overflow list is re-filed. DNS TTLs are clamped to ≤ 24 h upstream, so in
// practice everything lands in levels 0–1 and the overflow list stays empty.
//
// Per-bucket entry counts and the wheel position are atomics so a telemetry
// scrape can compute live-vs-expired occupancy (LiveLen) while the owning
// worker mutates the cache — the same single-owner/racy-reader contract the
// slab already uses for size and the stat counters.
const (
	wheelL0Bits = 9
	wheelL0Size = 1 << wheelL0Bits // 512 one-second buckets
	wheelL1Size = 512              // 512 buckets of 512 s each

	wheelL0Span = int64(wheelL0Size)               // ticks ahead coverable by level 0
	wheelL1Span = int64(wheelL0Size) * wheelL1Size // ticks ahead coverable by levels 0+1
	wheelL1Max  = wheelL1Span - wheelL0Span        // safe level-1 horizon (avoids window aliasing)

	wheelOverflowIdx = wheelL0Size + wheelL1Size // flat index of the overflow bucket
	wheelBuckets     = wheelOverflowIdx + 1
)

type wheel struct {
	// Per-slot intrusive links, grown in lockstep with the slab. bucket
	// records which flat bucket a slot is filed in (nilIdx = not filed),
	// so unfile is O(1) and double-unfiling is a no-op. expiry keeps the
	// slot's expiry tick so cascades re-file without touching the generic
	// slab.
	prev, next, bucket []int32
	expiry             []int64

	heads  [wheelBuckets]int32
	counts [wheelBuckets]atomic.Int32

	count   int64 // total filed entries (owner-only)
	base    int64 // unix second of tick 0, fixed at the first file
	started bool  // owner-only: base is set

	cur   atomic.Int64 // wheel position: every tick < cur has been reclaimed
	clock atomic.Int64 // high-water tick observed from callers' now
}

// init readies a zero-value wheel in place (the struct embeds atomics, so
// it is never copied after construction).
func (w *wheel) init() {
	for i := range w.heads {
		w.heads[i] = nilIdx
	}
}

func (w *wheel) grow(limit int) {
	w.prev = appendCapped(w.prev, nilIdx, limit)
	w.next = appendCapped(w.next, nilIdx, limit)
	w.bucket = appendCapped(w.bucket, nilIdx, limit)
	w.expiry = appendCapped(w.expiry, 0, limit)
}

// observe folds a caller-supplied wall-clock reading into the scrape-visible
// high-water tick. One load and a rare store — nothing on the hot path.
func (w *wheel) observe(now time.Time) {
	if !w.started {
		return
	}
	if t := now.Unix() - w.base; t > w.clock.Load() {
		w.clock.Store(t)
	}
}

// tickOf converts an absolute time to a wheel tick (may be negative before
// the wheel's base; callers clamp).
func (w *wheel) tickOf(t time.Time) int64 { return t.Unix() - w.base }

// bucketFor picks the flat bucket for an entry expiring at tick e when the
// wheel is at cur. Level 1 is capped at wheelL1Max (not wheelL1Span) so a
// filed entry's window always lies within the current level-1 rotation —
// otherwise an entry just under the horizon could alias into a window about
// to cascade and bounce forever.
func bucketFor(e, cur int64) int32 {
	d := e - cur
	if d < wheelL0Span {
		return int32(e & (wheelL0Size - 1))
	}
	if d < wheelL1Max {
		return int32(wheelL0Size + (e>>wheelL0Bits)&(wheelL1Size-1))
	}
	return wheelOverflowIdx
}

// file threads slot i onto the expiry list for tick e (clamped to the wheel
// position, so already-past expiries land in the next reclaimable bucket).
func (w *wheel) file(i int32, e int64) {
	cur := w.cur.Load()
	if e < cur {
		e = cur
	}
	b := bucketFor(e, cur)
	h := w.heads[b]
	w.prev[i] = nilIdx
	w.next[i] = h
	if h != nilIdx {
		w.prev[h] = i
	}
	w.heads[b] = i
	w.bucket[i] = b
	w.expiry[i] = e
	w.counts[b].Add(1)
	w.count++
}

// unfile removes slot i from its expiry list. No-op if not filed.
func (w *wheel) unfile(i int32) {
	b := w.bucket[i]
	if b == nilIdx {
		return
	}
	if p := w.prev[i]; p != nilIdx {
		w.next[p] = w.next[i]
	} else {
		w.heads[b] = w.next[i]
	}
	if n := w.next[i]; n != nilIdx {
		w.prev[n] = w.prev[i]
	}
	w.prev[i] = nilIdx
	w.next[i] = nilIdx
	w.bucket[i] = nilIdx
	w.counts[b].Add(-1)
	w.count--
}

// cascade refiles the level-1 window reached at cur down into level 0, then
// re-files the overflow list (entries newly within the level-1 horizon move
// down; the rest return to overflow). Called whenever cur crosses a
// 512-tick boundary. Pure list surgery — never reclaims, never allocates.
func (w *wheel) cascade(cur int64) {
	l1 := int32(wheelL0Size + (cur>>wheelL0Bits)&(wheelL1Size-1))
	w.drainInto(l1, cur)
	w.drainInto(wheelOverflowIdx, cur)
}

// drainInto detaches bucket b wholesale and re-files each entry against the
// current wheel position. The detach-first shape makes refiling into b
// itself safe (overflow entries still beyond the horizon just re-join it).
func (w *wheel) drainInto(b int32, cur int64) {
	i := w.heads[b]
	if i == nilIdx {
		return
	}
	w.heads[b] = nilIdx
	w.counts[b].Store(0)
	for i != nilIdx {
		n := w.next[i]
		e := w.expiry[i]
		if e < cur {
			e = cur
		}
		nb := bucketFor(e, cur)
		h := w.heads[nb]
		w.prev[i] = nilIdx
		w.next[i] = h
		if h != nilIdx {
			w.prev[h] = i
		}
		w.heads[nb] = i
		w.bucket[i] = nb
		w.counts[nb].Add(1)
		i = n
	}
}
