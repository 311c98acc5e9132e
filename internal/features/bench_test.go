package features

import (
	"math/rand"
	"testing"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/dntree"
	"dnsnoise/internal/labelgen"
	"dnsnoise/internal/resolver"
)

func BenchmarkFromGroup(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := chrstat.NewCollector()
	g := dntree.Group{Zone: "bench.test", Depth: 3}
	for i := 0; i < 200; i++ {
		label := string(labelgen.AppendToken(nil, rng, 20))
		name := label + ".bench.test"
		g.Names = append(g.Names, name)
		g.Labels = append(g.Labels, label)
		rr := dnsmsg.RR{Name: name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN, TTL: 60,
			RData: dnsmsg.IPv4(127, 0, 0, byte(i%255))}
		ob := resolver.Observation{QName: name, RR: rr, RCode: dnsmsg.RCodeNoError, Category: cache.CategoryDisposable}
		c.ObserveBelow(ob)
		c.ObserveAbove(ob)
	}
	byName := c.ByName()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := FromGroup(g, byName)
		if v.Cardinality == 0 {
			b.Fatal("empty vector")
		}
	}
}
