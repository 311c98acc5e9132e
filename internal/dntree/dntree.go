// Package dntree implements the domain name tree of Section V-A: a trie of
// labels rooted at ".", where a node is black when a resource record for its
// name was observed in the dataset, and white otherwise. The miner walks
// zones of this tree, groups black descendants by depth (the G_k sets),
// extracts the label sets adjacent to the zone under inspection (the L_k
// sets), and decolors nodes classified as disposable.
package dntree

import (
	"slices"
	"sort"
	"strings"

	"dnsnoise/internal/dnsname"
)

// Tree is the domain name tree. The zero value is not usable; call New.
type Tree struct {
	root     *Node
	suffixes *dnsname.Suffixes
	// nodes holds every node but the root by its full name: the tree's one
	// name index.
	nodes map[string]*Node
	// slab is the chunk new nodes are cut from, free the pruned slots to
	// reuse first, chained through next (see release).
	slab []Node
	free *Node
	// starts holds, by name, the node of every effective 2LD some black name
	// registers under: the zones Algorithm 1 starts from. Batch inserts only
	// add to them; streaming expiry (stream.go) also takes away.
	starts    map[string]*Node
	decolored []*Node // turned white since the last Restore

	// Streaming state (see stream.go): the window ordinal, the horizon in
	// windows (0: no expiry), the nodes stamped in each window inside it, the
	// starts touched this window, the starts deep enough to sit under another.
	window, keep uint32
	byWindow     map[uint32][]*Node
	dirty, deep  []*Node
}

// Node is one name's place in the tree, and the handle a caller that goes
// zone by zone holds in place of the name: valid until the name expires or
// ResetStream; a nil Node is an absent name, with nothing below it. Nodes
// are cut from slab chunks that never move, so a handle pins its chunk; an
// expired node's slot is reused, and a handle kept past expiry then reads a
// different node.
// Invariants, kept by every method that creates, colours or removes one:
// name is the full domain name, a suffix slice of the first name inserted
// through the node ("" for the root), and any other is Tree.nodes[name];
// child heads the chain of its children, linked both ways through next and
// prev, each pointing back through parent; below counts the black strict
// descendants, starts the black names whose effective 2LD the node is;
// lastSeen is the window of the latest observation while black.
type Node struct {
	parent, child, next, prev *Node
	name                      string
	below                     int32
	lastSeen                  uint32
	starts                    int32
	black                     bool
	dirty                     bool // listed in Tree.dirty: a start, or a slot pruned since
}

// setBlack recolours n and keeps every ancestor's below count in step.
func (t *Tree) setBlack(n *Node, black bool) {
	delta := int32(1)
	if !black {
		delta = -1
	}
	n.black = black
	for p := n.parent; p != nil; p = p.parent {
		p.below += delta
	}
}

// register counts n, just turned black (delta 1) or expired (-1), at its
// effective 2LD, which becomes or stops being a start — a deep one from four
// labels up: the only kind, made by a suffix of three, to have one above it.
func (t *Tree) register(n *Node, delta int32) {
	e2ld := t.suffixes.ETLDPlusOne(n.name)
	if e2ld == "" {
		return
	}
	for len(n.name) > len(e2ld) {
		n = n.parent
	}
	if n.starts += delta; n.starts != max(delta, 0) {
		return // neither its first name nor its last
	}
	deep := dnsname.CountLabels(n.name) >= 4
	if delta > 0 {
		t.starts[n.name] = n
		if deep {
			t.deep = append(t.deep, n)
		}
	} else {
		delete(t.starts, n.name)
		if deep {
			t.deep = slices.DeleteFunc(t.deep, func(d *Node) bool { return d == n })
		}
	}
}

// label is n's own label: its name without the parent's.
func (n *Node) label() string {
	if n.parent.parent == nil { // under the root
		return n.name
	}
	return n.name[:len(n.name)-len(n.parent.name)-1]
}

// live reports whether n's subtree, n included, holds a black node.
func (n *Node) live() bool { return n.black || n.below > 0 }

// New returns an empty tree using suffixes for effective-2LD extraction.
// Passing nil uses dnsname.DefaultSuffixes().
func New(suffixes *dnsname.Suffixes) *Tree {
	if suffixes == nil {
		suffixes = dnsname.DefaultSuffixes()
	}
	return &Tree{
		root:     &Node{},
		suffixes: suffixes,
		nodes:    make(map[string]*Node),
		starts:   make(map[string]*Node),
	}
}

// Insert marks name as a black node, creating intermediate white nodes along
// the path. Names are normalized. Inserting an existing black node is a
// no-op.
func (t *Tree) Insert(name string) { t.blacken(name) }

// blacken is Insert; it returns the node, nil for the empty name, and
// whether the node was not black already.
func (t *Tree) blacken(name string) (n *Node, fresh bool) {
	if name = dnsname.Normalize(name); name == "" {
		return nil, false
	}
	return t.color(t.walk(name, true))
}

// color is blacken for a node the tree holds.
func (t *Tree) color(n *Node) (_ *Node, fresh bool) {
	if fresh = !n.black; fresh {
		t.setBlack(n, true)
		t.register(n, 1)
	}
	return n, fresh
}

// walk returns name's node, optionally creating it and its missing
// ancestors; nil when create is false and the name is absent. A new name's
// suffixes are probed left to right up to the deepest node the tree holds,
// and the missing nodes are made from there down; each one's name is a
// suffix slice of name, not a copy.
func (t *Tree) walk(name string, create bool) *Node {
	if name == "" {
		return t.root
	}
	if n := t.nodes[name]; n != nil || !create {
		return n
	}
	n, end := t.root, len(name)
	for i := 0; ; {
		dot := strings.IndexByte(name[i:], '.')
		if dot < 0 {
			break
		}
		i += dot + 1
		if p := t.nodes[name[i:]]; p != nil {
			n, end = p, i-1
			break
		}
	}
	for end >= 0 {
		start := strings.LastIndexByte(name[:end], '.') + 1
		n = t.newNode(n, name[start:])
		end = start - 1
	}
	return n
}

// Slab chunks double from slabMin nodes to slabMax (256 KiB), so a small
// tree stays small and a day's tree is a few dozen allocations. A chunk is
// one node short of a power of two: nodes hold pointers, so the allocator
// puts an 8-byte header in front of a chunk up to 32 KiB, and 64 nodes
// (4 104 bytes with it) would take the 4 864-byte size class, 63 the 4 096.
const slabMin, slabMax = 63, 4095

// newNode links a node named name as parent's first child, in a pruned
// slot if there is one.
func (t *Tree) newNode(parent *Node, name string) *Node {
	n := t.free
	if n != nil {
		t.free = n.next
	} else {
		if len(t.slab) == cap(t.slab) {
			t.slab = make([]Node, 0, min(max(2*cap(t.slab)+1, slabMin), slabMax))
		}
		t.slab = t.slab[:len(t.slab)+1]
		n = &t.slab[len(t.slab)-1]
	}
	*n = Node{parent: parent, next: parent.child, name: name}
	if parent.child != nil {
		parent.child.prev = n
	}
	parent.child = n
	t.nodes[name] = n
	return n
}

// Node returns the handle of name, nil when the tree holds no such node.
func (t *Tree) Node(name string) *Node { return t.walk(dnsname.Normalize(name), false) }

// Name returns the node's full domain name.
func (n *Node) Name() string { return n.name }

func (t *Tree) decolor(n *Node) bool {
	if n == nil || !n.black {
		return false
	}
	t.setBlack(n, false)
	t.decolored = append(t.decolored, n)
	return true
}

// DecolorGroup turns white every node of g that is still black (Algorithm 1,
// line 8).
func (t *Tree) DecolorGroup(g *Group) {
	for _, n := range g.nodes {
		t.decolor(n)
	}
}

// Restore turns black again whatever was decolored since the last Restore,
// so that a mined tree can be mined again; until then nothing may be inserted
// or expired. Window stamps and start counts are as decoloring left them.
func (t *Tree) Restore() {
	for _, n := range t.decolored {
		t.setBlack(n, true)
	}
	t.decolored = t.decolored[:0]
}

func sortByName(nodes []*Node) {
	slices.SortFunc(nodes, func(a, b *Node) int { return strings.Compare(a.name, b.name) })
}

// NumStarts counts the starts: effective 2LDs with a name in the tree.
func (t *Tree) NumStarts() int { return len(t.starts) }

// IsStart reports whether the node is (still) one of them.
func (n *Node) IsStart() bool { return n.starts > 0 }

// Group is one G_k set: the black strict descendants of Zone at depth
// Depth, with the distinct labels adjacent to the zone (the L_k set).
type Group struct {
	Zone  string
	Depth int
	// Names holds the full domain names of the group's black nodes.
	Names []string
	// Labels is the distinct set of labels immediately left of Zone among
	// Names (paper: "labels next to the zone under inspection").
	Labels []string
	nodes  []*Node // the same, in no order, for DecolorGroup
}

// GroupsUnder returns the G_k sets under zone, ordered by increasing depth.
// The zone's own node (even if black) is not part of any group; only strict
// descendants count. An absent zone yields nil.
func (t *Tree) GroupsUnder(zone string) []Group { return t.Node(zone).AppendGroups(nil) }

// AppendGroups is GroupsUnder into caller-owned storage, for a caller that
// mines zone after zone: the groups overwrite buf from index 0 and reuse the
// arrays of whatever buf held up to its capacity. The result aliases buf until
// buf is passed in again; the name strings belong to the tree and stay valid.
func (zn *Node) AppendGroups(buf []Group) []Group {
	if zn == nil {
		return buf[:0]
	}
	// Collect with the group of relative depth d at index d-1, which may
	// leave empty slots at depths that hold no black node.
	groups := buf[:0]
	if zn.below > 0 {
		for child := zn.child; child != nil; child = child.next {
			if child.live() {
				groups = child.collect(groups, child.label(), 0)
			}
		}
	}
	zoneDepth := dnsname.Depth(zn.name)
	out := groups[:0]
	for i := range groups {
		g := &groups[i]
		if len(g.Names) == 0 {
			continue
		}
		g.Zone, g.Depth = zn.name, zoneDepth+1+i
		sort.Strings(g.Names)
		sort.Strings(g.Labels)
		// Swap, not copy: the skipped slot keeps its arrays for reuse.
		k := len(out)
		out = out[:k+1]
		out[k], groups[i] = groups[i], out[k]
	}
	return out
}

// collect adds the black nodes of n's subtree to groups, n itself at index
// rel. adjacent is the label of the zone's direct child the subtree hangs
// from; a subtree is collected in one go, so within a group equal labels
// are consecutive and the last one appended is the only duplicate to check.
func (n *Node) collect(groups []Group, adjacent string, rel int) []Group {
	if n.black {
		for len(groups) <= rel {
			if k := len(groups); k < cap(groups) {
				groups = groups[:k+1]
				g := &groups[k]
				g.Names, g.Labels, g.nodes = g.Names[:0], g.Labels[:0], g.nodes[:0]
			} else {
				groups = append(groups, Group{})
			}
		}
		g := &groups[rel]
		g.Names = append(g.Names, n.name)
		g.nodes = append(g.nodes, n)
		if k := len(g.Labels); k == 0 || g.Labels[k-1] != adjacent {
			g.Labels = append(g.Labels, adjacent)
		}
	}
	if n.below > 0 {
		for child := n.child; child != nil; child = child.next {
			if child.live() {
				groups = child.collect(groups, adjacent, rel+1)
			}
		}
	}
	return groups
}

// HasBlackDescendants is Algorithm 1's line 1: any black strict descendant?
func (zn *Node) HasBlackDescendants() bool { return zn != nil && zn.below > 0 }

// AppendChildZones appends, sorted by name, the zone's direct children that
// have black descendants: Algorithm 1's recursion set (lines 15-17, less 1).
func (zn *Node) AppendChildZones(dst []*Node) []*Node {
	if !zn.HasBlackDescendants() {
		return dst
	}
	from := len(dst)
	for child := zn.child; child != nil; child = child.next {
		if child.below > 0 {
			dst = append(dst, child)
		}
	}
	sortByName(dst[from:])
	return dst
}

// NamesUnder returns all black names that are strict descendants of zone,
// sorted. Useful for reporting and for wildcard collapsing.
func (t *Tree) NamesUnder(zone string) []string {
	var out []string
	for _, g := range t.GroupsUnder(zone) {
		out = append(out, g.Names...)
	}
	sort.Strings(out)
	return out
}
