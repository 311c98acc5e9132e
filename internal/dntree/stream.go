// Streaming (incremental) tree maintenance. The batch miner builds a
// fresh tree per day from a completed collector; the streaming pipeline
// instead keeps one tree alive and mutates it in place as names arrive:
//
//   - InsertAt stamps each observation with a window ordinal, so the tree
//     knows which sliding window last saw every black node;
//   - ExpireBefore decolors (and prunes) the names whose last observation
//     fell out of the sliding window, touching only the per-window name
//     lists instead of rescanning the whole trie;
//   - Recolor undoes the miner's Decolor after a re-score, so a single
//     tree can be mined every window without a rebuild.
//
// With expiry disabled (the day-equivalence mode), a streaming tree fed
// the same names as a batch BuildTree holds an identical black set, which
// is what pins streaming day-boundary verdicts to the batch miner's.
package dntree

import "dnsnoise/internal/dnsname"

// Window returns the tree's current window ordinal (advanced by
// AdvanceWindow; zero for batch trees).
func (t *Tree) Window() uint32 { return t.window }

// AdvanceWindow moves the tree to the next window ordinal and returns it.
// Not safe for concurrent use with any other tree method.
func (t *Tree) AdvanceWindow() uint32 {
	t.window++
	return t.window
}

// InsertAt is Insert stamped with the tree's current window: the name's
// node becomes (or stays) black and records the window as its last
// observation, feeding the per-window bookkeeping that ExpireBefore uses
// for O(window) decay.
func (t *Tree) InsertAt(name string) {
	name = dnsname.Normalize(name)
	if name == "" {
		return
	}
	n := t.walk(name, true)
	if t.byWindow == nil {
		t.byWindow = make(map[uint32][]string)
		t.windowBlack = make(map[uint32]int)
	}
	if !n.black {
		t.setBlack(n, true)
		if e2ld := t.suffixes.ETLDPlusOne(name); e2ld != "" {
			t.e2lds[e2ld]++
		}
	} else {
		if n.lastSeen == t.window {
			return // already stamped this window
		}
		t.windowBlack[n.lastSeen]--
	}
	n.lastSeen = t.window
	t.windowBlack[t.window]++
	t.byWindow[t.window] = append(t.byWindow[t.window], name)
}

// BlackInWindow returns how many black nodes were last observed in the
// given window ordinal — the per-window node count behind drift and decay
// monitoring.
func (t *Tree) BlackInWindow(w uint32) int { return t.windowBlack[w] }

// Recolor restores a present white node to black and reports whether
// anything changed: the inverse of Decolor, used after a streaming
// re-score so the mined tree survives to the next window. It does not
// touch window stamps or e2ld refcounts (Decolor touched neither).
func (t *Tree) Recolor(name string) bool {
	n := t.walk(dnsname.Normalize(name), false)
	if n == nil || n.black {
		return false
	}
	t.setBlack(n, true)
	return true
}

// ExpireBefore decolors every black node whose last observation precedes
// window `oldest`, prunes the emptied branches, and returns the expired
// names (so callers can drop them from their dedup state). Only the
// per-window name lists are visited. Names re-observed since their listing
// carry a newer stamp and survive.
func (t *Tree) ExpireBefore(oldest uint32) []string {
	var expired []string
	for w, names := range t.byWindow {
		if w >= oldest {
			continue
		}
		for _, name := range names {
			n := t.walk(name, false)
			if n == nil || !n.black || n.lastSeen != w {
				continue // re-observed later, or already gone
			}
			t.setBlack(n, false)
			t.windowBlack[w]--
			if e2ld := t.suffixes.ETLDPlusOne(name); e2ld != "" {
				if t.e2lds[e2ld]--; t.e2lds[e2ld] <= 0 {
					delete(t.e2lds, e2ld)
				}
			}
			t.prune(n)
			expired = append(expired, name)
		}
		delete(t.byWindow, w)
		delete(t.windowBlack, w)
	}
	return expired
}

// prune removes the white, childless tail of the path that ends at n, so
// expired branches do not accumulate as dead trie weight.
func (t *Tree) prune(n *node) {
	for p := n.parent; p != nil && !n.black && len(n.children) == 0; n, p = p, p.parent {
		// n's label is its name without the parent's (the root has none).
		label := n.name
		if p != t.root {
			label = n.name[:len(n.name)-len(p.name)-1]
		}
		delete(p.children, label)
	}
}

// ResetStream clears every name and all window bookkeeping while keeping
// the suffix ruleset: the day-boundary reset of the streaming pipeline,
// equivalent to allocating a fresh tree but explicit about intent.
func (t *Tree) ResetStream() {
	t.root = &node{}
	t.e2lds = make(map[string]int)
	t.black = 0
	t.byWindow = nil
	t.windowBlack = nil
	// The window ordinal keeps counting: hysteresis state outlives days.
}
