package dntree

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"dnsnoise/internal/dnsname"
)

// TestStreamEquivalenceWithBatch pins the day-equivalence contract at the
// tree layer: with expiry disabled, a streaming tree fed InsertAt over the
// same names as a batch Insert holds an identical black set, e2ld set, and
// group structure — regardless of insertion order or window spread.
func TestStreamEquivalenceWithBatch(t *testing.T) {
	names := []string{
		"x1.api.cdn.example.com",
		"x2.api.cdn.example.com",
		"a9.api.cdn.example.com",
		"www.example.com",
		"mail.other.org",
		"b.mail.other.org",
		"x1.api.cdn.example.com", // duplicate
	}
	batch := New(nil)
	for _, n := range names {
		batch.Insert(n)
	}
	stream := New(nil)
	for i, n := range names {
		if i == 3 {
			stream.AdvanceWindow() // split the insertions across windows
		}
		stream.InsertAt(n)
	}
	if got, want := stream.blackCount(), batch.blackCount(); got != want {
		t.Fatalf("BlackCount: stream %d, batch %d", got, want)
	}
	if got, want := startNames(stream), startNames(batch); !reflect.DeepEqual(got, want) {
		t.Fatalf("Effective2LDs: stream %v, batch %v", got, want)
	}
	for _, zone := range startNames(batch) {
		if got, want := stream.GroupsUnder(zone), batch.GroupsUnder(zone); !sameGroups(got, want) {
			t.Fatalf("GroupsUnder(%s): stream %+v, batch %+v", zone, got, want)
		}
	}
}

// TestRecolorUndoesDecolor checks the mine-then-restore cycle the
// streaming re-score relies on.
func TestRecolorUndoesDecolor(t *testing.T) {
	tr := New(nil)
	tr.InsertAt("a.zone.example.net")
	tr.InsertAt("b.zone.example.net")
	tr.InsertAt("c.zone.example.net")
	before := tr.blackCount()
	if !tr.decolorName("a.zone.example.net") {
		t.Fatal("decolorName returned false for a black node")
	}
	if tr.isBlack("a.zone.example.net") {
		t.Fatal("node still black after decolorName")
	}
	// A group goes white in one call, less what already is.
	groups := tr.GroupsUnder("example.net")
	tr.decolorName("b.zone.example.net")
	tr.DecolorGroup(&groups[0])
	if got := tr.blackCount(); got != 0 {
		t.Fatalf("BlackCount after DecolorGroup = %d, want 0", got)
	}
	tr.Restore()
	if got := tr.blackCount(); got != before {
		t.Fatalf("BlackCount after decolor+restore = %d, want %d", got, before)
	}
	if !tr.isBlack("a.zone.example.net") {
		t.Fatal("node not black after Restore")
	}
	tr.decolorName("c.zone.example.net")
	tr.Restore()
	tr.decolorName("a.zone.example.net")
	tr.Restore()
	if got := tr.blackCount(); got != before {
		t.Fatalf("BlackCount after two more rounds = %d, want %d: Restore remembers a round it already restored", got, before)
	}
	checkNodes(t, tr)
}

// TestExpireBefore exercises sliding-window decay: names not re-observed
// within the keep horizon are decolored and pruned; re-observed names
// survive with their newer stamp.
func TestExpireBefore(t *testing.T) {
	tr := New(nil)
	tr.SetHorizon(1)
	tr.InsertAt("old.zone.example.com")    // window 0
	tr.InsertAt("stable.zone.example.com") // window 0
	if expired := tr.Expire(); expired != 0 {
		t.Fatalf("%d expired inside the first window", expired)
	}
	tr.AdvanceWindow()
	tr.InsertAt("stable.zone.example.com") // re-observed in window 1
	tr.InsertAt("new.zone.example.com")    // window 1

	if expired := tr.Expire(); expired != 1 {
		t.Fatalf("%d expired, want old.zone.example.com alone", expired)
	}
	if tr.isBlack("old.zone.example.com") {
		t.Fatal("expired name still black")
	}
	if !tr.isBlack("stable.zone.example.com") || !tr.isBlack("new.zone.example.com") {
		t.Fatal("surviving names lost their color")
	}
	if got := tr.blackCount(); got != 2 {
		t.Fatalf("BlackCount = %d, want 2", got)
	}
	// The e2ld survives while any black name remains, and disappears once
	// the last one expires.
	if got := startNames(tr); !reflect.DeepEqual(got, []string{"example.com"}) {
		t.Fatalf("Effective2LDs = %v", got)
	}
	tr.AdvanceWindow()
	tr.AdvanceWindow()
	if expired := tr.Expire(); expired != 2 {
		t.Fatalf("second expiry: %d expired, want both survivors", expired)
	}
	if got := startNames(tr); len(got) != 0 {
		t.Fatalf("Effective2LDs after full expiry = %v, want empty", got)
	}
	if tr.blackCount() != 0 {
		t.Fatalf("BlackCount after full expiry = %d", tr.blackCount())
	}
	// Pruned: the zone has no remaining structure to group.
	if gs := tr.GroupsUnder("example.com"); len(gs) != 0 {
		t.Fatalf("groups under pruned zone: %+v", gs)
	}

	// Without a horizon nothing is listed and nothing expires.
	tr = New(nil)
	tr.InsertAt("kept.zone.example.com")
	for i := 0; i < 3; i++ {
		tr.AdvanceWindow()
	}
	if expired := tr.Expire(); expired != 0 || tr.byWindow != nil {
		t.Fatalf("no horizon: %d expired, %d window lists", expired, len(tr.byWindow))
	}
}

// dirtyNames lists what Dirty reports.
func dirtyNames(tr *Tree) []string {
	var out []string
	for _, n := range tr.Dirty(nil) {
		out = append(out, n.name)
	}
	return out
}

// TestDirty: a window's dirty starts are those above the names it inserted,
// re-observed or expired — every one of them where starts nest, and a deep
// start and those above it in every window.
func TestDirty(t *testing.T) {
	suffixes := dnsname.NewSuffixes([]string{"com", "org", "s3.example.com"})
	tr := New(suffixes)
	tr.SetHorizon(2)
	for _, name := range []string{"www.example.com", "a.shop.org", "b.shop.org", "x.quiet.org"} {
		tr.InsertAt(name)
	}
	if got, want := dirtyNames(tr), []string{"example.com", "quiet.org", "shop.org"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("window 0: dirty = %v, want %v", got, want)
	}
	if got := dirtyNames(tr); len(got) != 3 {
		t.Fatalf("Dirty forgot its starts before the window advanced: %v", got)
	}
	tr.AdvanceWindow()
	if got := dirtyNames(tr); len(got) != 0 {
		t.Fatalf("window 1: dirty = %v before anything was touched", got)
	}
	tr.InsertAt("a.shop.org") // re-observed
	tr.InsertAt("a.shop.org") // twice
	tr.InsertAt("c.shop.org") // new
	if got, want := dirtyNames(tr), []string{"shop.org"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("window 1: dirty = %v, want %v", got, want)
	}
	tr.AdvanceWindow()
	// Window 2: what window 0 saw last expires; quiet.org goes with its only
	// name and is no start any more, example.com likewise.
	quiet := tr.Node("quiet.org")
	if expired := tr.Expire(); expired != 3 {
		t.Fatalf("window 2: %d expired, want www.example.com, b.shop.org, x.quiet.org", expired)
	}
	if got, want := dirtyNames(tr), []string{"shop.org"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("window 2: dirty = %v, want %v (an expired name's start, while it is one)", got, want)
	}
	if quiet.IsStart() || tr.Node("quiet.org") != nil {
		t.Fatal("quiet.org outlived its last name")
	}
	// The name comes back on a new node: one dirty start of that name.
	tr.InsertAt("y.quiet.org")
	if got, want := dirtyNames(tr), []string{"quiet.org", "shop.org"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("window 2: dirty = %v, want %v", got, want)
	}
	tr.AdvanceWindow()

	// Nested starts: a name under the lower one dirties both, a name under
	// the upper one alone dirties the upper — and the lower, because it is
	// deep, is dirty regardless, in every window.
	tr.InsertAt("k1.bucket.s3.example.com")
	tr.InsertAt("www.example.com")
	if got, want := startNames(tr), []string{"bucket.s3.example.com", "example.com", "quiet.org", "shop.org"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Effective2LDs = %v, want %v", got, want)
	}
	nested := []string{"bucket.s3.example.com", "example.com"}
	if got := dirtyNames(tr); !reflect.DeepEqual(got, nested) {
		t.Fatalf("nested: dirty = %v, want %v", got, nested)
	}
	tr.AdvanceWindow()
	if got := dirtyNames(tr); !reflect.DeepEqual(got, nested) {
		t.Fatalf("nested, untouched window: dirty = %v, want %v", got, nested)
	}
	tr.AdvanceWindow()
	tr.TouchAll()
	if got, want := dirtyNames(tr), startNames(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("TouchAll: dirty = %v, want every start %v", got, want)
	}
	// Both names of the nest expire: nothing is deep any more.
	tr.AdvanceWindow()
	tr.Expire()
	tr.AdvanceWindow()
	if got := dirtyNames(tr); len(got) != 0 || len(tr.deep) != 0 {
		t.Fatalf("after the nest expired: dirty = %v, %d deep starts", got, len(tr.deep))
	}
	checkNodes(t, tr)
}

// TestResetStream starts a fresh day but keeps the window ordinal running,
// and keeps no handle on the day that ended: one node reaches the whole
// tree through its parent.
func TestResetStream(t *testing.T) {
	tr := New(dnsname.NewSuffixes([]string{"com", "s3.example.com"}))
	tr.SetHorizon(3)
	tr.InsertAt("a.zone.example.com")
	tr.InsertAt("k.bucket.s3.example.com")
	tr.decolorName("a.zone.example.com")
	tr.AdvanceWindow()
	tr.InsertAt("b.zone.example.com")
	if len(tr.decolored) == 0 || len(tr.dirty) == 0 || len(tr.deep) == 0 || len(tr.byWindow) == 0 {
		t.Fatalf("fixture: %d decolored, %d dirty, %d deep, %d window lists", len(tr.decolored), len(tr.dirty), len(tr.deep), len(tr.byWindow))
	}
	tr.ResetStream()
	if tr.blackCount() != 0 || len(startNames(tr)) != 0 {
		t.Fatal("ResetStream left names behind")
	}
	if tr.window != 1 {
		t.Fatalf("Window after reset = %d, want 1", tr.window)
	}
	if tr.decolored != nil || tr.dirty != nil || tr.deep != nil || len(tr.byWindow) != 0 {
		t.Errorf("ResetStream keeps lists of %d decolored, %d dirty, %d deep, %d windows: handles into the old tree",
			cap(tr.decolored), cap(tr.dirty), cap(tr.deep), len(tr.byWindow))
	}
	if len(tr.nodes) != 0 || tr.slab != nil || tr.free != nil {
		t.Errorf("ResetStream keeps %d indexed nodes, a chunk of %d, free slots %v: the old tree's", len(tr.nodes), cap(tr.slab), tr.free != nil)
	}
	tr.InsertAt("b.zone.example.com")
	if !tr.isBlack("b.zone.example.com") {
		t.Fatal("insert after reset failed")
	}
}

// TestExpireRecyclesSlots: expiry keeps the tree's memory bound. Forty
// windows of a thousand fresh deep names under horizon 2 take no more slots
// than the live peak and one chunk, and an expired name's bytes are
// collected: a pruned slot pins nothing. A slot counts as taken once it is
// seen live, right after the inserts of its window: nothing is pruned before.
func TestExpireRecyclesSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := New(nil)
	tr.SetHorizon(2)
	taken := make(map[*Node]bool)
	peak := 0
	var probeFreed <-chan struct{}
	for w := 0; w < 40; w++ {
		for i := 0; i < 1000; i++ {
			tr.InsertAt(mcafeeName(rng))
		}
		if w == 0 {
			// A name of its own bytes (more than 16 of them: the allocator
			// packs smaller ones together), alone under its hash.
			b := []byte("probe." + mcafeeName(rng))
			probe := unsafe.String(&b[0], len(b))
			freed := make(chan struct{})
			runtime.SetFinalizer(&b[0], func(*byte) { close(freed) })
			probeFreed = freed
			tr.InsertAt(probe)
		}
		for _, n := range tr.nodes {
			taken[n] = true
		}
		peak = max(peak, len(tr.nodes))
		tr.Expire()
		tr.AdvanceWindow()
	}
	if len(taken) > peak+slabMax {
		t.Errorf("%d slots taken for a peak of %d live nodes: more than one chunk (%d) over", len(taken), peak, slabMax)
	}
	for tries := 0; ; tries++ {
		runtime.GC()
		select {
		case <-probeFreed:
		case <-time.After(10 * time.Millisecond):
			if tries < 300 {
				continue
			}
			t.Error("an expired name's bytes are still reachable from the tree")
		}
		break
	}
	runtime.KeepAlive(tr)
	checkNodes(t, tr)
}

// TestInsertAtBytesNormalizesAsInsertAt: the bytes form stamps the node
// InsertAt would, for the names a probe of the raw bytes could mistake too:
// upper case, a trailing dot, and the one-dot name of a node that a name
// ending in two dots made.
func TestInsertAtBytesNormalizesAsInsertAt(t *testing.T) {
	held := []string{"www.example.com", "odd.example.com.."}
	for _, name := range []string{"www.example.com", "WWW.Example.com", "www.example.com.",
		"odd.example.com.", "odd.example.com..", "new.example.com", ""} {
		byString, byBytes := New(nil), New(nil)
		for _, h := range held {
			byString.InsertAt(h)
			byBytes.InsertAt(h)
		}
		byString.AdvanceWindow()
		byBytes.AdvanceWindow()
		want, got := byString.InsertAt(name), byBytes.InsertAtBytes([]byte(name))
		if got != want || !reflect.DeepEqual(blackNames(byBytes), blackNames(byString)) {
			t.Errorf("InsertAtBytes(%q) = %v over %v; InsertAt: %v over %v",
				name, got, blackNames(byBytes), want, blackNames(byString))
		}
		if b, s := byBytes.Node(name), byString.Node(name); b != nil && s != nil && b.lastSeen != s.lastSeen {
			t.Errorf("InsertAtBytes(%q) stamped window %d, InsertAt %d", name, b.lastSeen, s.lastSeen)
		}
	}
}
