package cache

// This file is the eviction-policy seam. The cache container (lru.go) owns
// the slab, the key index, the TTL timer wheel and the statistics; which
// occupied slot an insertion displaces is delegated to a Policy operating on
// a non-generic ordering arena (order). Keeping the arena outside the
// generic slot payload means one policy implementation serves every (K, V)
// instantiation, and switching policies costs a single interface field — no
// per-policy allocations, no change to the 0 allocs/op hot path.

// PolicyKind selects one of the built-in eviction policies.
type PolicyKind uint8

// Built-in eviction policies.
const (
	// PolicyLRU is the classic least-recently-used order: hits promote to
	// the front, insertions evict the tail. The default, and the policy
	// every paper measurement runs under.
	PolicyLRU PolicyKind = iota
	// PolicySIEVE is the SIEVE algorithm (Zhang et al., NSDI'24): a FIFO
	// queue with a visited bit and a hand sweeping from the cold end
	// toward the head. Hits set the bit and never move the entry, so the
	// hit path is a single store — cheaper than LRU promotion.
	PolicySIEVE
)

// String renders the policy name as accepted by ParsePolicy.
func (k PolicyKind) String() string {
	switch k {
	case PolicySIEVE:
		return "sieve"
	default:
		return "lru"
	}
}

// ParsePolicy maps a -cache-policy flag value to its kind.
func ParsePolicy(s string) (PolicyKind, error) {
	switch s {
	case "lru", "":
		return PolicyLRU, nil
	case "sieve":
		return PolicySIEVE, nil
	}
	return PolicyLRU, errUnknownPolicy(s)
}

// MarshalText and UnmarshalText make a PolicyKind a flag.TextVar target,
// spelled as String and ParsePolicy spell it.
func (k PolicyKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *PolicyKind) UnmarshalText(text []byte) (err error) {
	*k, err = ParsePolicy(string(text))
	return err
}

type errUnknownPolicy string

func (e errUnknownPolicy) Error() string {
	return "unknown cache policy " + string(e) + " (want lru or sieve)"
}

// Policies lists every built-in PolicyKind, for sweeps and tests.
func Policies() []PolicyKind { return []PolicyKind{PolicyLRU, PolicySIEVE} }

// order is the ordering arena a Policy operates on: intrusive prev/next
// links and one mark bit per slab slot, plus the list ends and the scan
// hand. The container grows it in lockstep with the slab; free slots are
// chained through next while unfiled.
type order struct {
	prev, next []int32
	mark       []bool
	head, tail int32 // head = hottest end, tail = cold end
	hand       int32 // SIEVE scan position (nilIdx = start from tail)
}

func newOrder() order { return order{head: nilIdx, tail: nilIdx, hand: nilIdx} }

func (o *order) grow(limit int) {
	o.prev = appendCapped(o.prev, nilIdx, limit)
	o.next = appendCapped(o.next, nilIdx, limit)
	o.mark = appendCapped(o.mark, false, limit)
}

func (o *order) unlink(i int32) {
	if p := o.prev[i]; p != nilIdx {
		o.next[p] = o.next[i]
	} else {
		o.head = o.next[i]
	}
	if n := o.next[i]; n != nilIdx {
		o.prev[n] = o.prev[i]
	} else {
		o.tail = o.prev[i]
	}
	o.prev[i] = nilIdx
	o.next[i] = nilIdx
}

func (o *order) pushFront(i int32) {
	o.prev[i] = nilIdx
	o.next[i] = o.head
	if o.head != nilIdx {
		o.prev[o.head] = i
	}
	o.head = i
	if o.tail == nilIdx {
		o.tail = i
	}
}

func (o *order) pushBack(i int32) {
	o.next[i] = nilIdx
	o.prev[i] = o.tail
	if o.tail != nilIdx {
		o.next[o.tail] = i
	}
	o.tail = i
	if o.head == nilIdx {
		o.head = i
	}
}

func (o *order) moveToFront(i int32) {
	if o.head == i {
		return
	}
	o.unlink(i)
	o.pushFront(i)
}

func (o *order) moveToBack(i int32) {
	if o.tail == i {
		return
	}
	o.unlink(i)
	o.pushBack(i)
}

// Policy decides which occupied slot an insertion displaces. Implementations
// are stateless — every bit of policy state lives in the order
// arena — so a policy is shared by all caches and all key/value types.
//
// The methods are unexported: the set of invariants a policy must uphold
// (every filed slot reachable from head, hand validity across removals) is
// easiest to keep honest inside the package. New policies are added here and
// surfaced through PolicyKind.
type Policy interface {
	// insert files freshly allocated slot i. low asks for the cold end:
	// the entry should be an early eviction victim.
	insert(o *order, i int32, low bool)
	// touch records a hit on slot i.
	touch(o *order, i int32)
	// refresh records an in-place overwrite of slot i; low demotes it.
	refresh(o *order, i int32, low bool)
	// remove unfiles slot i (eviction or expiry reclaim).
	remove(o *order, i int32)
	// victim returns the slot the next insertion should evict, advancing
	// any internal scan state. nilIdx when nothing is filed.
	victim(o *order) int32
}

// policyFor returns the policy for kind.
func policyFor(kind PolicyKind) Policy {
	if kind == PolicySIEVE {
		return sievePolicy{}
	}
	return lruPolicy{}
}

// lruPolicy reproduces the historical behaviour exactly: recency list with
// front promotion; the tail is always the victim. PutLowPriorityEv's contract
// — the entry is the next victim and can never displace a live entry — holds
// precisely under this policy.
type lruPolicy struct{}

func (lruPolicy) insert(o *order, i int32, low bool) {
	if low {
		o.pushBack(i)
	} else {
		o.pushFront(i)
	}
}

func (lruPolicy) touch(o *order, i int32) { o.moveToFront(i) }

func (lruPolicy) refresh(o *order, i int32, low bool) {
	if low {
		o.moveToBack(i)
	} else {
		o.moveToFront(i)
	}
}

func (lruPolicy) remove(o *order, i int32) { o.unlink(i) }

func (lruPolicy) victim(o *order) int32 { return o.tail }

// sievePolicy: insertions join the head of a FIFO queue; a hit sets the
// visited bit without moving the entry. The hand sweeps from the tail
// toward the head, clearing visited bits, and evicts the first unvisited
// entry it meets; it then rests one step hotter, so retained entries are
// examined again only after a full lap. Low-priority entries join the tail
// unvisited — cold, though the next-victim guarantee is LRU-only (the hand
// may be mid-sweep elsewhere).
type sievePolicy struct{}

func (sievePolicy) insert(o *order, i int32, low bool) {
	if low {
		o.pushBack(i)
	} else {
		o.pushFront(i)
	}
	o.mark[i] = false
}

func (sievePolicy) touch(o *order, i int32) { o.mark[i] = true }

func (sievePolicy) refresh(o *order, i int32, low bool) {
	if low {
		o.mark[i] = false
		o.moveToBack(i)
	} else {
		o.mark[i] = true
	}
}

func (sievePolicy) remove(o *order, i int32) {
	if o.hand == i {
		o.hand = o.prev[i]
	}
	o.unlink(i)
}

func (sievePolicy) victim(o *order) int32 {
	h := o.hand
	if h == nilIdx {
		h = o.tail
	}
	if h == nilIdx {
		return nilIdx
	}
	// Each visited entry is unmarked exactly once per lap, so the scan
	// terminates within one full rotation.
	for o.mark[h] {
		o.mark[h] = false
		h = o.prev[h]
		if h == nilIdx {
			h = o.tail
		}
	}
	o.hand = o.prev[h] // may be nilIdx: the next sweep wraps to the tail
	return h
}
