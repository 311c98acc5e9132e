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
		name := labelgen.Token(rng, 20) + fmt.Sprintf(".z%d.example.com", i%50)
		t.Insert(name)
		names = append(names, name)
	}
	return t, names
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	t := New(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Insert(labelgen.Token(rng, 20) + ".avqs.mcafee.com")
	}
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
