package dntree

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/labelgen"
)

// paperNames reproduces the example of Figure 8.
var paperNames = []string{
	"a.example.com",
	"i.1.a.example.com",
	"2.a.example.com",
	"3.a.example.com",
	"4.b.example.com",
	"c.example.com",
}

func paperTree() *Tree {
	t := New(nil)
	for _, n := range paperNames {
		t.Insert(n)
	}
	return t
}

func TestInsertAndBlackness(t *testing.T) {
	tr := paperTree()
	if tr.blackCount() != len(paperNames) {
		t.Errorf("BlackCount = %d, want %d", tr.blackCount(), len(paperNames))
	}
	for _, n := range paperNames {
		if !tr.isBlack(n) {
			t.Errorf("%q should be black", n)
		}
	}
	// Intermediate nodes on the path are white.
	for _, n := range []string{"example.com", "b.example.com", "1.a.example.com", "com"} {
		if tr.isBlack(n) {
			t.Errorf("%q should be white", n)
		}
	}
}

func TestInsertIdempotent(t *testing.T) {
	tr := New(nil)
	tr.Insert("a.example.com")
	tr.Insert("A.Example.COM.")
	if tr.blackCount() != 1 {
		t.Errorf("BlackCount = %d, want 1 (normalized duplicate)", tr.blackCount())
	}
	tr.Insert("")
	if tr.blackCount() != 1 {
		t.Errorf("empty insert changed the tree")
	}
}

func TestGroupsUnderPaperExample(t *testing.T) {
	tr := paperTree()
	groups := tr.GroupsUnder("example.com")
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3 (G3, G4, G5)", len(groups))
	}
	// G3 = {a.example.com, c.example.com}, L3 = {a, c}
	g3 := groups[0]
	if g3.Depth != 3 {
		t.Errorf("g3 depth = %d", g3.Depth)
	}
	wantNames := []string{"a.example.com", "c.example.com"}
	if strings.Join(g3.Names, ",") != strings.Join(wantNames, ",") {
		t.Errorf("G3 = %v, want %v", g3.Names, wantNames)
	}
	if strings.Join(g3.Labels, ",") != "a,c" {
		t.Errorf("L3 = %v, want [a c]", g3.Labels)
	}
	// G4 = {2.a..., 3.a..., 4.b...}, L4 = {a, b} (labels adjacent to zone).
	g4 := groups[1]
	if len(g4.Names) != 3 {
		t.Errorf("G4 = %v", g4.Names)
	}
	if strings.Join(g4.Labels, ",") != "a,b" {
		t.Errorf("L4 = %v, want [a b] (paper Section V-A1)", g4.Labels)
	}
	// G5 = {i.1.a.example.com}, L5 = {a}.
	g5 := groups[2]
	if len(g5.Names) != 1 || g5.Names[0] != "i.1.a.example.com" {
		t.Errorf("G5 = %v", g5.Names)
	}
	if strings.Join(g5.Labels, ",") != "a" {
		t.Errorf("L5 = %v, want [a]", g5.Labels)
	}
}

func TestDecolorPaperFigure9(t *testing.T) {
	tr := paperTree()
	// Figure 9: decoloring a.example.com and c.example.com.
	if !tr.decolorName("a.example.com") || !tr.decolorName("c.example.com") {
		t.Fatal("Decolor should succeed on black nodes")
	}
	if tr.decolorName("a.example.com") {
		t.Error("second Decolor should report false")
	}
	if tr.decolorName("never-inserted.example.com") {
		t.Error("Decolor of absent node should report false")
	}
	groups := tr.GroupsUnder("example.com")
	if len(groups) != 2 {
		t.Fatalf("groups after decolor = %d, want 2 (G4, G5)", len(groups))
	}
	if groups[0].Depth != 4 || groups[1].Depth != 5 {
		t.Errorf("depths = %d, %d", groups[0].Depth, groups[1].Depth)
	}
	// Descendants of decolored nodes remain.
	if !tr.isBlack("2.a.example.com") {
		t.Error("descendants must survive decoloring")
	}
	if tr.blackCount() != 4 {
		t.Errorf("BlackCount = %d, want 4", tr.blackCount())
	}
}

// isBlack reports whether name is a black node.
func (t *Tree) isBlack(name string) bool {
	n := t.Node(name)
	return n != nil && n.black
}

// blackCount is the number of black nodes, all strict descendants of the
// root.
func (t *Tree) blackCount() int { return int(t.root.below) }

// decolorName turns name's node white and reports whether it was black.
func (t *Tree) decolorName(name string) bool { return t.decolor(t.Node(name)) }

// startNames lists the effective 2LDs the tree would mine from, sorted.
func startNames(tr *Tree) []string {
	var out []string
	for name := range tr.starts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// blackNames is the set of the tree's black names.
func blackNames(tr *Tree) map[string]bool {
	out := make(map[string]bool)
	for name, n := range tr.nodes {
		if n.black {
			out[name] = true
		}
	}
	return out
}

// childZones and hasBlackDescendants are the handle queries by name.
func childZones(tr *Tree, zone string) []string {
	var out []string
	for _, n := range tr.Node(zone).AppendChildZones(nil) {
		out = append(out, n.name)
	}
	return out
}

func hasBlackDescendants(tr *Tree, zone string) bool { return tr.Node(zone).HasBlackDescendants() }

func TestChildZones(t *testing.T) {
	tr := paperTree()
	// c.example.com is a black leaf: Algorithm 1 line 1 would turn it away.
	got := childZones(tr, "example.com")
	want := "a.example.com,b.example.com"
	if strings.Join(got, ",") != want {
		t.Errorf("ChildZones = %v, want %s", got, want)
	}
	// After decoloring b's only descendant, b.example.com has no black
	// descendants -> drops out of the recursion set.
	tr.decolorName("4.b.example.com")
	got = childZones(tr, "example.com")
	want = "a.example.com"
	if strings.Join(got, ",") != want {
		t.Errorf("ChildZones after decolor = %v, want %s", got, want)
	}
}

func TestHasBlackDescendants(t *testing.T) {
	tr := paperTree()
	if !hasBlackDescendants(tr, "example.com") {
		t.Error("example.com should have black descendants")
	}
	if !hasBlackDescendants(tr, "a.example.com") {
		t.Error("a.example.com should have black descendants (2,3,i.1)")
	}
	if hasBlackDescendants(tr, "c.example.com") {
		t.Error("leaf c.example.com has no descendants")
	}
	if hasBlackDescendants(tr, "absent.example.com") {
		t.Error("absent zone should report false")
	}
}

func TestEffective2LDs(t *testing.T) {
	tr := New(nil)
	tr.Insert("a.example.com")
	tr.Insert("b.example.co.uk")
	tr.Insert("x.y.host.no-ip.com")
	got := startNames(tr)
	want := []string{"example.co.uk", "example.com", "host.no-ip.com"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Effective2LDs = %v, want %v", got, want)
	}
}

func TestNamesUnder(t *testing.T) {
	tr := paperTree()
	got := tr.NamesUnder("a.example.com")
	want := []string{"2.a.example.com", "3.a.example.com", "i.1.a.example.com"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("NamesUnder = %v, want %v", got, want)
	}
	if tr.NamesUnder("absent.zone.test") != nil {
		t.Error("NamesUnder absent zone should be nil")
	}
}

func TestGroupsUnderAbsentZone(t *testing.T) {
	tr := paperTree()
	if got := tr.GroupsUnder("not.present.test"); got != nil {
		t.Errorf("GroupsUnder absent = %v", got)
	}
}

// Property: after inserting N distinct names under one zone, the union of
// all groups' Names equals the inserted set, and every group's depth
// exceeds the zone's.
func TestGroupPartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		tr := New(nil)
		inserted := make(map[string]struct{})
		for i := 0; i < n; i++ {
			depth := rng.Intn(3) + 1
			labels := make([]string, depth)
			for j := range labels {
				labels[j] = string(labelgen.AppendToken(nil, rng, rng.Intn(6)+1))
			}
			name := strings.Join(labels, ".") + ".zone.test"
			tr.Insert(name)
			inserted[name] = struct{}{}
		}
		groups := tr.GroupsUnder("zone.test")
		seen := make(map[string]struct{})
		for _, g := range groups {
			if g.Depth <= 2 {
				return false
			}
			for _, name := range g.Names {
				if _, dup := seen[name]; dup {
					return false // groups must partition
				}
				seen[name] = struct{}{}
				if _, ok := inserted[name]; !ok {
					return false
				}
			}
		}
		return len(seen) == len(inserted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: decoloring every name empties all groups.
func TestDecolorAllProperty(t *testing.T) {
	tr := paperTree()
	for _, n := range paperNames {
		tr.decolorName(n)
	}
	if tr.blackCount() != 0 {
		t.Errorf("BlackCount = %d, want 0", tr.blackCount())
	}
	if groups := tr.GroupsUnder("example.com"); len(groups) != 0 {
		t.Errorf("groups = %v, want none", groups)
	}
	if hasBlackDescendants(tr, "example.com") {
		t.Error("no black descendants should remain")
	}
}

// The reference: GroupsUnder, ChildZones and hasBlackDescendant as they
// were before nodes carried name, parent and below — every name rebuilt by
// label+"."+name on the way down, every "any black below?" answered by a
// subtree scan, the path found through dnsname.Labels. They read only
// children and black, so they check the new fields against the structure
// those fields summarise; they read children off the chain, by label.
// (Under the root zone "" the old bodies left a trailing dot on every name;
// the reference does not.)

// children maps the labels of n's chained children to them.
func children(n *Node) map[string]*Node {
	out := make(map[string]*Node)
	for c := n.child; c != nil; c = c.next {
		out[childLabel(n, c)] = c
	}
	return out
}

// childLabel is c's name less "."+n's, all of it when it does not end so:
// the label checkNodes rebuilds c's name from.
func childLabel(n, c *Node) string {
	if n.parent == nil { // the root
		return c.name
	}
	return strings.TrimSuffix(c.name, "."+n.name)
}

func refWalk(t *Tree, name string) *Node {
	n := t.root
	labels := dnsname.Labels(name)
	for i := len(labels) - 1; i >= 0; i-- {
		child, ok := children(n)[labels[i]]
		if !ok {
			return nil
		}
		n = child
	}
	return n
}

func refGroupsUnder(t *Tree, zone string) []Group {
	zone = dnsname.Normalize(zone)
	zn := refWalk(t, zone)
	if zn == nil {
		return nil
	}
	zoneDepth := dnsname.Depth(zone)
	byDepth := make(map[int]*Group)
	labelSeen := make(map[int]map[string]struct{})

	var descend func(n *Node, name string, adjacent string, depth int)
	descend = func(n *Node, name string, adjacent string, depth int) {
		if n.black {
			g, ok := byDepth[depth]
			if !ok {
				g = &Group{Zone: zone, Depth: depth}
				byDepth[depth] = g
				labelSeen[depth] = make(map[string]struct{})
			}
			g.Names = append(g.Names, name)
			if _, dup := labelSeen[depth][adjacent]; !dup {
				labelSeen[depth][adjacent] = struct{}{}
				g.Labels = append(g.Labels, adjacent)
			}
		}
		for label, child := range children(n) {
			descend(child, label+"."+name, adjacent, depth+1)
		}
	}
	for label, child := range children(zn) {
		name := label
		if zone != "" {
			name = label + "." + zone
		}
		descend(child, name, label, zoneDepth+1)
	}

	depths := make([]int, 0, len(byDepth))
	for d := range byDepth {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	out := make([]Group, 0, len(depths))
	for _, d := range depths {
		g := byDepth[d]
		sort.Strings(g.Names)
		sort.Strings(g.Labels)
		out = append(out, *g)
	}
	return out
}

func refChildZones(t *Tree, zone string) []string {
	zone = dnsname.Normalize(zone)
	zn := refWalk(t, zone)
	if zn == nil {
		return nil
	}
	var out []string
	for label, child := range children(zn) {
		if refHasBlackDescendant(child) {
			if zone == "" {
				out = append(out, label)
			} else {
				out = append(out, label+"."+zone)
			}
		}
	}
	sort.Strings(out)
	return out
}

func refHasBlackDescendant(n *Node) bool {
	for _, child := range children(n) {
		if child.black || refHasBlackDescendant(child) {
			return true
		}
	}
	return false
}

func refNamesUnder(t *Tree, zone string) []string {
	var out []string
	for _, g := range refGroupsUnder(t, zone) {
		out = append(out, g.Names...)
	}
	sort.Strings(out)
	return out
}

// checkNodes recounts what every node claims about itself: name is the
// path's labels joined, parent is the node above, below is the number of
// black strict descendants, starts the number of black names registered
// under it; the index holds every node reached from the root by its name and
// nothing else, the chains run the same both ways, and a free slot is
// empty; and the tree's black total, its starts and its deep starts are the
// recount's.
func checkNodes(t *testing.T, tr *Tree) {
	t.Helper()
	registered := make(map[string]int32)
	reached := 0
	var recount func(n *Node, name string) int
	recount = func(n *Node, name string) int {
		if n.name != name {
			t.Errorf("node %q holds name %q", name, n.name)
		}
		if n != tr.root {
			reached++
			if tr.nodes[name] != n {
				t.Errorf("node %q is not the index's node of its name", name)
			}
		}
		if n.black || slices.Contains(tr.decolored, n) { // decoloring does not unregister
			if e2ld := tr.suffixes.ETLDPlusOne(name); e2ld != "" {
				registered[e2ld]++
			}
		}
		black := 0
		var prev *Node
		for child := n.child; child != nil; prev, child = child, child.next {
			label := childLabel(n, child)
			if child.parent != n {
				t.Errorf("node %q: child %q points at another parent", name, label)
			}
			if child.prev != prev {
				t.Errorf("node %q: child %q is chained to the next one but not back", name, label)
			}
			if strings.Contains(label, ".") {
				t.Errorf("node %q: child %q is more than one label below", name, label)
			}
			childName := label
			if n != tr.root {
				childName = label + "." + name
			}
			black += recount(child, childName)
			if child.black {
				black++
			}
		}
		if int(n.below) != black {
			t.Errorf("node %q: below = %d, recount = %d", name, n.below, black)
		}
		return black
	}
	recount(tr.root, "")
	if len(tr.nodes) != reached {
		t.Errorf("the index holds %d nodes, %d are reached from the root", len(tr.nodes), reached)
	}
	for n := tr.free; n != nil; n = n.next {
		if *n != (Node{next: n.next}) {
			t.Errorf("free slot holds %+v", *n)
		}
	}
	deep := 0
	for name, want := range registered {
		if n := tr.starts[name]; n == nil || n != refWalk(tr, name) || n.starts != want {
			t.Errorf("start %q: %d names registered, the tree says %+v", name, want, n)
		}
		if dnsname.CountLabels(name) >= 4 {
			deep++
			if !slices.Contains(tr.deep, tr.starts[name]) {
				t.Errorf("start %q is not listed as deep", name)
			}
		}
	}
	if len(tr.starts) != len(registered) || len(tr.deep) != deep {
		t.Errorf("%d starts, %d of them deep; recount %d and %d", len(tr.starts), len(tr.deep), len(registered), deep)
	}
}

// sameGroups compares group lists on what they report — not the handles
// they carry — an absent or empty list being equal to nil either way.
func sameGroups(a, b []Group) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Zone != b[i].Zone || a[i].Depth != b[i].Depth ||
			!sameStrings(a[i].Names, b[i].Names) || !sameStrings(a[i].Labels, b[i].Labels) {
			return false
		}
	}
	return true
}

func sameStrings(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// refDirty is what Dirty must report: of the starts the tree has now, those
// that were a start above a name when the window inserted, re-observed or
// expired it (marked), and every deep start with the starts above it.
func refDirty(tr *Tree, marked map[string]bool) []string {
	starts := startNames(tr)
	var out []string
	for _, s := range starts {
		dirty := marked[s]
		for _, deep := range starts {
			if dnsname.CountLabels(deep) >= 4 && dnsname.IsSubdomainOf(deep, s) {
				dirty = true
			}
		}
		if dirty {
			out = append(out, s)
		}
	}
	return out
}

// TestMatchesReference drives random operation sequences over a small
// label alphabet — so names collide, share zones at every depth, make zone
// nodes and a node next to the TLD black, and come back after expiry — and
// after every step compares each query method with the reference over
// every zone that was ever named, plus an absent one. Odd seeds mix batch
// and streaming inserts under the default suffixes; even seeds are streams
// under a suffix set that nests starts (x.a.example.com under example.com),
// and there Dirty is compared with the reference too.
func TestMatchesReference(t *testing.T) {
	zones := []string{"com", "example.com", "a.example.com", "b.a.example.com",
		"co.uk", "shop.co.uk", "net", "cdn.net"}
	labels := []string{"a", "b", "c", "www", "x1", "x2"}
	probes := append([]string{"", "absent.org", "Example.COM."}, zones...)
	for _, z := range zones {
		for _, l := range labels {
			probes = append(probes, l+"."+z)
		}
	}

	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randomName := func() string {
			name := zones[rng.Intn(len(zones))]
			for d := rng.Intn(4); d > 0; d-- {
				name = labels[rng.Intn(len(labels))] + "." + name
			}
			switch rng.Intn(8) {
			case 0:
				name = strings.ToUpper(name)
			case 1:
				name += "."
			}
			return name
		}
		stream := seed%2 == 0
		tr := New(nil)
		if stream {
			tr = New(dnsname.NewSuffixes([]string{"com", "net", "co.uk", "a.example.com"}))
		}
		marked := make(map[string]bool)
		mark := func(name string, starts []string) {
			for _, s := range starts {
				if dnsname.IsSubdomainOf(name, s) {
					marked[s] = true
				}
			}
		}
		var buf []Group
		stack := []*Node{nil}
		for step := 0; step < 300; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 30 && !stream:
				op = "Insert"
				tr.Restore()
				tr.Insert(randomName())
			case r < 60:
				// Every other step through the bytes, as the name came:
				// InsertAtBytes normalizes as InsertAt does.
				op = "InsertAt"
				raw := randomName()
				name := dnsname.Normalize(raw)
				tr.Restore() // the contract: nothing is inserted into a mined tree
				n := tr.Node(name)
				fresh := name != "" && (n == nil || !n.black)
				stamps := fresh || name != "" && n.lastSeen != tr.window
				var got bool
				if step%2 == 0 {
					op = "InsertAtBytes"
					got = tr.InsertAtBytes([]byte(raw))
				} else {
					got = tr.InsertAt(name)
				}
				if got != fresh {
					t.Fatalf("seed %d step %d: %s(%q) = %v", seed, step, op, raw, got)
				}
				if stamps {
					mark(name, startNames(tr))
				}
			case r < 70:
				op = "Decolor"
				tr.decolorName(randomName())
			case r < 75:
				op = "DecolorGroup"
				if groups := tr.GroupsUnder(randomName()); len(groups) > 0 {
					tr.DecolorGroup(&groups[rng.Intn(len(groups))])
				}
			case r < 85:
				op = "Restore"
				tr.Restore()
			case r < 92:
				op = "AdvanceWindow"
				tr.AdvanceWindow()
				clear(marked)
			case r < 99:
				op = "Expire"
				tr.Restore()
				tr.SetHorizon(1 + rng.Intn(3))
				starts, before := startNames(tr), blackNames(tr)
				n := tr.Expire()
				expired := 0
				for name := range before {
					if !tr.isBlack(name) {
						expired++
						mark(name, starts)
					}
				}
				if n != expired {
					t.Fatalf("seed %d step %d: Expire = %d, %d names expired", seed, step, n, expired)
				}
			default:
				op = "ResetStream"
				tr.ResetStream()
				clear(marked)
			}
			at := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			checkNodes(t, tr)
			if got, want := dirtyNames(tr), refDirty(tr, marked); stream && !sameStrings(got, want) {
				t.Fatalf("%s: Dirty = %v, reference %v", at, got, want)
			}
			for _, zone := range probes {
				want := refGroupsUnder(tr, zone)
				if got := tr.GroupsUnder(zone); !sameGroups(got, want) {
					t.Fatalf("%s: GroupsUnder(%q) = %v, reference %v", at, zone, got, want)
				}
				// One buffer across every zone, as the miner holds it.
				if buf = tr.Node(zone).AppendGroups(buf); !sameGroups(buf, want) {
					t.Fatalf("%s: AppendGroups(%q) into a used buffer = %v, reference %v", at, zone, buf, want)
				}
				for _, g := range buf {
					var names []string
					for _, n := range g.nodes {
						names = append(names, n.name)
					}
					if sort.Strings(names); !sameStrings(names, g.Names) {
						t.Fatalf("%s: group %s/%d carries nodes %v for names %v", at, zone, g.Depth, names, g.Names)
					}
				}
				wantZones := refChildZones(tr, zone)
				stack = tr.Node(zone).AppendChildZones(stack[:1])
				if got := childZones(tr, zone); stack[0] != nil || len(stack) != 1+len(got) || !sameStrings(got, wantZones) {
					t.Fatalf("%s: AppendChildZones(%q) = %v, reference %v", at, zone, got, wantZones)
				}
				zn := refWalk(tr, dnsname.Normalize(zone))
				if got, want := hasBlackDescendants(tr, zone), zn != nil && refHasBlackDescendant(zn); got != want {
					t.Fatalf("%s: HasBlackDescendants(%q) = %v, reference %v", at, zone, got, want)
				}
				if got, want := tr.NamesUnder(zone), refNamesUnder(tr, zone); !sameStrings(got, want) {
					t.Fatalf("%s: NamesUnder(%q) = %v, reference %v", at, zone, got, want)
				}
			}
			if t.Failed() {
				t.Fatalf("%s: node invariants broken", at)
			}
		}
	}
}

// TestTreeInsertZeroAlloc: a name the tree holds is re-stamped without an
// allocation, given as a string or as bytes, and a tree of new deep names
// allocates for its slab chunks and the growth of its index, not per node.
// The index's growth is measured on its own, the same names put in the same
// order: 0.006 allocations a node on the Swiss-table map of Go 1.24, 0.033
// on Go 1.23's, which allocates overflow buckets one by one.
func TestTreeInsertZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	names := make([]string, 10000)
	for i := range names {
		names[i] = mcafeeName(rng)
	}
	tr := New(nil)
	for _, name := range names {
		tr.InsertAt(name)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		tr.AdvanceWindow()
		for _, name := range names {
			tr.InsertAt(name)
		}
	}); allocs != 0 {
		t.Errorf("re-stamping %d names: %v allocations", len(names), allocs)
	}
	raw := make([][]byte, len(names))
	for i, name := range names {
		raw[i] = []byte(name)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		tr.AdvanceWindow()
		for _, name := range raw {
			tr.InsertAtBytes(name)
		}
	}); allocs != 0 {
		t.Errorf("re-stamping %d names by their bytes: %v allocations", len(names), allocs)
	}

	created := 0
	allocs := testing.AllocsPerRun(3, func() {
		tr := New(nil)
		for _, name := range names {
			tr.Insert(name)
		}
		created = len(tr.nodes)
	})
	index := testing.AllocsPerRun(3, func() {
		m := make(map[string]*Node)
		for _, name := range names {
			for end := len(name); end > 0; {
				start := strings.LastIndexByte(name[:end], '.') + 1
				if _, ok := m[name[start:]]; !ok {
					m[name[start:]] = nil
				}
				end = start - 1
			}
		}
	})
	if perNode := (allocs - index) / float64(created); perNode > 0.01 {
		t.Errorf("building a tree of %d names: %v allocations for %d nodes, %v of them the index's: %.3f a node beyond it, want at most 0.01",
			len(names), allocs, created, index, perNode)
	}
	t.Logf("%d nodes in %v allocations, %v of them the index's", created, allocs, index)
}
