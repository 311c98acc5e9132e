// Streaming (incremental) tree maintenance. The batch miner builds a
// fresh tree per day from a completed collector; the streaming pipeline
// instead keeps one tree alive and mutates it in place as names arrive:
//
//   - InsertAt stamps each observation with a window ordinal, so the tree
//     knows which sliding window last saw every black node;
//   - Expire decolors (and prunes) the names whose last observation fell
//     out of the horizon, by per-window node lists, not a scan of the trie;
//   - both mark dirty the starts above the name, which Dirty lists, so that
//     a window is mined where it changed, and Restore (dntree.go) undoes the
//     miner's decoloring.
//
// With expiry disabled (the day-equivalence mode), a streaming tree fed
// the same names as a batch BuildTree holds an identical black set, which
// is what pins streaming day-boundary verdicts to the batch miner's.
package dntree

// AdvanceWindow moves the tree to the next window ordinal, in which nothing
// is dirty yet. Not safe for concurrent use with any other tree method.
func (t *Tree) AdvanceWindow() {
	for _, n := range t.dirty {
		if n.dirty = false; n.parent == nil { // pruned in the window
			n.next, t.free = t.free, n
		}
	}
	t.dirty = t.dirty[:0]
	t.window++
}

// SetHorizon makes Expire take the names not re-observed within keep
// windows. Zero, the default, keeps every name and lists none by window.
func (t *Tree) SetHorizon(keep int) {
	t.keep, t.byWindow = uint32(max(keep, 0)), make(map[uint32][]*Node)
}

// InsertAt is Insert stamped with the tree's current window: the name's
// node becomes (or stays) black, records the window as its last
// observation and, once per window, marks dirty every start above it.
// It reports whether the name is new to the tree.
func (t *Tree) InsertAt(name string) bool { return t.stamp(t.blacken(name)) }

// InsertAtBytes is InsertAt for a name held as bytes, which it copies only
// when the tree has no node of that name: a name the tree holds, and that
// normalizes to itself, is stamped with no string made. A node's name is
// normalized, so a hit has no upper case; a trailing dot is what the probe
// must rule out.
func (t *Tree) InsertAtBytes(name []byte) bool {
	if len(name) > 0 && name[len(name)-1] != '.' {
		if n := t.nodes[string(name)]; n != nil { // probed by the bytes: no copy
			return t.stamp(t.color(n))
		}
	}
	return t.InsertAt(string(name))
}

// stamp is the rest of InsertAt, for the node blacken or color returned.
func (t *Tree) stamp(n *Node, fresh bool) bool {
	if n == nil || !fresh && n.lastSeen == t.window {
		return false // no name, or already stamped this window
	}
	n.lastSeen = t.window
	if t.keep > 0 {
		t.byWindow[t.window] = append(t.byWindow[t.window], n)
	}
	t.touch(n)
	return fresh
}

// touch marks dirty the starts on n's ancestor path, n included: the zones
// whose mine reads n, of which there can be two (bucket.s3.example.com under
// example.com, s3.example.com being a suffix). A start found dirty ends the
// climb: whoever marked it went on to the root.
func (t *Tree) touch(n *Node) {
	for ; n != nil; n = n.parent {
		if n.starts == 0 {
			continue
		}
		if n.dirty {
			return
		}
		n.dirty = true
		t.dirty = append(t.dirty, n)
	}
}

// TouchAll marks every start dirty: a full mine, which is the batch miner's
// and the reference an incremental one is tested against.
func (t *Tree) TouchAll() {
	for _, n := range t.starts {
		t.touch(n)
	}
}

// Dirty returns in dst, sorted by name, the starts touched in the current
// window: the zones whose mine may differ from their last. Two starts read
// each other's names only if one is above the other, and the lower is then
// deep: a deep start and the starts above it are dirty in every window.
func (t *Tree) Dirty(dst []*Node) []*Node {
	for _, n := range t.deep {
		t.touch(n)
	}
	for _, n := range t.dirty {
		if n.IsStart() { // not one whose last name expired since
			dst = append(dst, n)
		}
	}
	sortByName(dst)
	return dst
}

// Expire decolors every black node last observed before the horizon (the
// current window and the keep-1 before it), prunes the emptied branches,
// marks dirty the starts above them, and returns how many names expired.
// Only the lists of the windows that fell out are visited; a name
// re-observed since its listing carries a newer stamp and survives. The
// tree must be restored: a node a mine decolored looks expired already.
func (t *Tree) Expire() int {
	if t.keep == 0 || t.window < t.keep {
		return 0
	}
	oldest := t.window + 1 - t.keep
	expired := 0
	for w, nodes := range t.byWindow {
		if w >= oldest {
			continue
		}
		for _, n := range nodes {
			if !n.black || n.lastSeen != w {
				continue // re-observed later, or expired from a later list
			}
			t.touch(n)
			t.setBlack(n, false)
			t.register(n, -1)
			expired++
			t.prune(n)
		}
		delete(t.byWindow, w)
	}
	return expired
}

// prune removes the white, childless tail of the path that ends at n, so
// expired branches do not accumulate as dead trie weight.
func (t *Tree) prune(n *Node) {
	for p := n.parent; p != nil && !n.black && n.child == nil; n, p = p, p.parent {
		if n.prev != nil {
			n.prev.next = n.next
		} else {
			p.child = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		}
		delete(t.nodes, n.name)
		t.release(n)
	}
}

// release zeroes a pruned node's slot, so that it pins no name, and frees it
// for reuse. A dirty one stays listed in t.dirty until AdvanceWindow frees
// it: reused sooner, it would be listed twice.
func (t *Tree) release(n *Node) {
	*n = Node{dirty: n.dirty}
	if !n.dirty {
		n.next, t.free = t.free, n
	}
}

// ResetStream clears every name and all window bookkeeping while keeping
// the suffix ruleset and the horizon: the day-boundary reset of the
// streaming pipeline. Every Node handed out before is dead, and the tree
// holds none of them.
func (t *Tree) ResetStream() {
	t.root = &Node{}
	t.nodes, t.slab, t.free = make(map[string]*Node), nil, nil
	clear(t.starts)
	clear(t.byWindow)
	t.decolored, t.dirty, t.deep = nil, nil, nil
	// The window ordinal keeps counting: hysteresis state outlives days.
}
