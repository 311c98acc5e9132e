package dntree

import (
	"fmt"
	"math/rand"
	"testing"

	"dnsnoise/internal/labelgen"
)

func benchTree(n int) (*Tree, []string) {
	rng := rand.New(rand.NewSource(5))
	t := New(nil)
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := string(labelgen.AppendToken(nil, rng, 20)) + fmt.Sprintf(".z%d.example.com", i%50)
		t.Insert(name)
		names = append(names, name)
	}
	return t, names
}

// mcafeeName is a disposable name of the shape McAfee's reputation lookups
// resolve, 0.0.0.0.1.0.0.4e.<hash>.avqs.mcafee.com: eight short labels over
// a hash, nine nodes new to a tree that holds avqs.mcafee.com.
func mcafeeName(rng *rand.Rand) string {
	b := make([]byte, 0, 64)
	for i := 0; i < 8; i++ {
		b = fmt.Appendf(b, "%x.", rng.Intn(256))
	}
	b = labelgen.AppendToken(b, rng, 26)
	return string(append(b, ".avqs.mcafee.com"...))
}

// BenchmarkInsert times the tree alone, on names made before the timer
// starts: one new node per name under a shared parent (shallow), nine per
// name (deep), and none (restamp: a name the tree holds, in a new window).
// The fresh-name cases start a new tree, untimed, after each pass.
func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	shallow, deep := make([]string, 1<<14), make([]string, 1<<14)
	for i := range shallow {
		shallow[i] = string(labelgen.AppendToken(nil, rng, 20)) + ".avqs.mcafee.com"
		deep[i] = mcafeeName(rng)
	}
	fresh := func(names []string) func(*testing.B) {
		return func(b *testing.B) {
			var t *Tree
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%len(names) == 0 {
					b.StopTimer()
					t = New(nil)
					b.StartTimer()
				}
				t.Insert(names[i%len(names)])
			}
		}
	}
	b.Run("shallow", fresh(shallow))
	b.Run("deep", fresh(deep))
	b.Run("restamp", func(b *testing.B) {
		t := New(nil)
		for _, name := range deep {
			t.InsertAt(name)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(deep) == 0 {
				t.AdvanceWindow()
			}
			t.InsertAt(deep[i%len(deep)])
		}
	})
}

func BenchmarkGroupsUnder(b *testing.B) {
	t, _ := benchTree(5000)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := t.GroupsUnder("example.com"); len(got) == 0 {
				b.Fatal("no groups")
			}
		}
	})
	// The miner's way: one buffer across zones and re-scores.
	b.Run("reused", func(b *testing.B) {
		var buf []Group
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buf = t.Node("example.com").AppendGroups(buf); len(buf) == 0 {
				b.Fatal("no groups")
			}
		}
	})
}

func BenchmarkChildZones(b *testing.B) {
	t, _ := benchTree(5000)
	var buf []*Node
	zone := t.Node("example.com")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf = zone.AppendChildZones(buf[:0]); len(buf) != 50 {
			b.Fatalf("%d child zones, want 50", len(buf))
		}
	}
}
