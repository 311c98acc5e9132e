// Package dntree implements the domain name tree of Section V-A: a trie of
// labels rooted at ".", where a node is black when a resource record for its
// name was observed in the dataset, and white otherwise. The miner walks
// zones of this tree, groups black descendants by depth (the G_k sets),
// extracts the label sets adjacent to the zone under inspection (the L_k
// sets), and decolors nodes classified as disposable.
package dntree

import (
	"sort"
	"strings"

	"dnsnoise/internal/dnsname"
)

// Tree is the domain name tree. The zero value is not usable; call New.
type Tree struct {
	root     *node
	suffixes *dnsname.Suffixes
	// e2lds refcounts black nodes per registrable domain: batch inserts
	// only ever increment (a zone stays a mining start point for the whole
	// day), while the streaming expiry path (stream.go) decrements so
	// zones whose names all aged out stop being walked.
	e2lds map[string]int
	black int

	// Streaming state (see stream.go). window is the current window
	// ordinal; byWindow records names first stamped in each window so
	// expiry touches only that window's names, not the whole tree;
	// windowBlack counts black nodes per last-seen window.
	window      uint32
	byWindow    map[uint32][]string
	windowBlack map[uint32]int
}

// node invariants, kept by every method that creates, colours or removes
// one: name is the full domain name, a suffix slice of the first name
// inserted through the node ("" for the root), and name minus
// "."+parent.name is the label that keys it in parent.children; below
// counts the black strict descendants; children is nil until the first
// child (most nodes are leaves).
type node struct {
	parent   *node
	children map[string]*node
	name     string
	below    int
	black    bool
	// lastSeen is the window ordinal of the node's most recent
	// observation while black; meaningful only for streaming trees.
	lastSeen uint32
}

// setBlack recolours n and keeps every ancestor's below count in step.
func (t *Tree) setBlack(n *node, black bool) {
	delta := 1
	if !black {
		delta = -1
	}
	n.black = black
	t.black += delta
	for p := n.parent; p != nil; p = p.parent {
		p.below += delta
	}
}

// live reports whether n's subtree, n included, holds a black node.
func (n *node) live() bool { return n.black || n.below > 0 }

// New returns an empty tree using suffixes for effective-2LD extraction.
// Passing nil uses dnsname.DefaultSuffixes().
func New(suffixes *dnsname.Suffixes) *Tree {
	if suffixes == nil {
		suffixes = dnsname.DefaultSuffixes()
	}
	return &Tree{
		root:     &node{},
		suffixes: suffixes,
		e2lds:    make(map[string]int),
	}
}

// Insert marks name as a black node, creating intermediate white nodes along
// the path. Names are normalized. Inserting an existing black node is a
// no-op.
func (t *Tree) Insert(name string) {
	name = dnsname.Normalize(name)
	if name == "" {
		return
	}
	n := t.walk(name, true)
	if !n.black {
		t.setBlack(n, true)
		if e2ld := t.suffixes.ETLDPlusOne(name); e2ld != "" {
			t.e2lds[e2ld]++
		}
	}
}

// walk descends right-to-left through the labels of name, optionally
// creating missing nodes; returns nil when create is false and the path is
// absent. The labels are scanned in place; a created node's name and its
// key in the parent's map are slices of name.
func (t *Tree) walk(name string, create bool) *node {
	n := t.root
	if name == "" {
		return n
	}
	for end := len(name); end >= 0; {
		start := strings.LastIndexByte(name[:end], '.') + 1
		child, ok := n.children[name[start:end]]
		if !ok {
			if !create {
				return nil
			}
			if n.children == nil {
				n.children = make(map[string]*node)
			}
			child = &node{parent: n, name: name[start:]}
			n.children[name[start:end]] = child
		}
		n = child
		end = start - 1
	}
	return n
}

// IsBlack reports whether name is currently a black node.
func (t *Tree) IsBlack(name string) bool {
	n := t.walk(dnsname.Normalize(name), false)
	return n != nil && n.black
}

// BlackCount returns the number of black nodes in the tree.
func (t *Tree) BlackCount() int { return t.black }

// Decolor turns name's node white, if present and black, and reports
// whether anything changed. The node (and its descendants) remain in the
// tree structure.
func (t *Tree) Decolor(name string) bool {
	n := t.walk(dnsname.Normalize(name), false)
	if n == nil || !n.black {
		return false
	}
	t.setBlack(n, false)
	return true
}

// Effective2LDs returns the distinct registrable domains (effective 2LDs)
// of every name ever inserted, sorted — the starting zones for Algorithm 1.
func (t *Tree) Effective2LDs() []string {
	out := make([]string, 0, len(t.e2lds))
	for z := range t.e2lds {
		out = append(out, z)
	}
	sort.Strings(out)
	return out
}

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
}

// GroupsUnder returns the G_k sets under zone, ordered by increasing depth.
// The zone's own node (even if black) is not part of any group; only strict
// descendants count. An absent zone yields nil.
func (t *Tree) GroupsUnder(zone string) []Group {
	return t.AppendGroupsUnder(nil, zone)
}

// AppendGroupsUnder is GroupsUnder into caller-owned storage, for a caller
// that mines zone after zone: the groups overwrite buf from index 0 and
// reuse the Names and Labels arrays of whatever buf held up to its
// capacity. The result aliases buf and is valid until buf is passed in
// again; the name strings belong to the tree and stay valid.
func (t *Tree) AppendGroupsUnder(buf []Group, zone string) []Group {
	zone = dnsname.Normalize(zone)
	zn := t.walk(zone, false)
	if zn == nil {
		return buf[:0]
	}
	// Collect with the group of relative depth d at index d-1, which may
	// leave empty slots at depths that hold no black node.
	groups := buf[:0]
	if zn.below > 0 {
		for label, child := range zn.children {
			if child.live() {
				groups = child.collect(groups, label, 0)
			}
		}
	}
	zoneDepth := dnsname.Depth(zone)
	out := groups[:0]
	for i := range groups {
		g := &groups[i]
		if len(g.Names) == 0 {
			continue
		}
		g.Zone, g.Depth = zone, zoneDepth+1+i
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
func (n *node) collect(groups []Group, adjacent string, rel int) []Group {
	if n.black {
		for len(groups) <= rel {
			if k := len(groups); k < cap(groups) {
				groups = groups[:k+1]
				groups[k].Names, groups[k].Labels = groups[k].Names[:0], groups[k].Labels[:0]
			} else {
				groups = append(groups, Group{})
			}
		}
		g := &groups[rel]
		g.Names = append(g.Names, n.name)
		if k := len(g.Labels); k == 0 || g.Labels[k-1] != adjacent {
			g.Labels = append(g.Labels, adjacent)
		}
	}
	if n.below > 0 {
		for _, child := range n.children {
			if child.live() {
				groups = child.collect(groups, adjacent, rel+1)
			}
		}
	}
	return groups
}

// ChildZones returns the names of zone's direct child nodes (black or
// white) that still have black descendants or are black themselves — the
// recursion set of Algorithm 1 (lines 15-17). Sorted.
func (t *Tree) ChildZones(zone string) []string {
	return t.AppendChildZones(nil, zone)
}

// AppendChildZones appends ChildZones(zone) to dst; only the appended part
// is sorted. The names belong to the tree: nothing is built per call.
func (t *Tree) AppendChildZones(dst []string, zone string) []string {
	zn := t.walk(dnsname.Normalize(zone), false)
	if zn == nil || zn.below == 0 {
		return dst
	}
	from := len(dst)
	for _, child := range zn.children {
		if child.live() {
			dst = append(dst, child.name)
		}
	}
	sort.Strings(dst[from:])
	return dst
}

// HasBlackDescendants reports whether zone has any black strict descendant
// (Algorithm 1, line 1).
func (t *Tree) HasBlackDescendants(zone string) bool {
	zn := t.walk(dnsname.Normalize(zone), false)
	return zn != nil && zn.below > 0
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

// String renders a compact indented dump, black nodes marked with "*".
// Intended for debugging and small trees only.
func (t *Tree) String() string {
	var sb strings.Builder
	var dump func(n *node, label string, indent int)
	dump = func(n *node, label string, indent int) {
		sb.WriteString(strings.Repeat("  ", indent))
		sb.WriteString(label)
		if n.black {
			sb.WriteString(" *")
		}
		sb.WriteByte('\n')
		labels := make([]string, 0, len(n.children))
		for l := range n.children {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			dump(n.children[l], l, indent+1)
		}
	}
	dump(t.root, ".", 0)
	return sb.String()
}
