// Cache pressure (paper Section VI-A): how a growing share of disposable
// queries fills a fixed-size LRU resolver cache with entries that will
// never be reused, prematurely evicting useful records and inflating
// traffic to the authoritative servers.
//
//	go run ./examples/cachepressure
package main

import (
	"fmt"
	"log"

	"dnsnoise/internal/experiments"
	"dnsnoise/internal/sim"
)

func main() {
	scale := sim.Small()
	// A deliberately small cache makes the eviction pressure visible at
	// simulation scale, as the paper's "periods of heavy load" do at ISP
	// scale.
	res, err := experiments.CachePressure(scale, []float64{0, 0.02, 0.05, 0.1, 0.2, 0.35})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())

	// Headline: the miss-rate inflation ordinary (non-disposable) queries
	// suffer — the paper's "service degradation" for regular users.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.NonDispMissRate > 0 {
		fmt.Printf("\nnon-disposable miss rate inflated %.2fx (%.1f%% -> %.1f%%) as the disposable share went %.0f%% -> %.0f%%\n",
			last.NonDispMissRate/first.NonDispMissRate,
			first.NonDispMissRate*100, last.NonDispMissRate*100,
			first.DisposableFrac*100, last.DisposableFrac*100)
	}
	fmt.Printf("resolver hit rate degraded from %.1f%% to %.1f%%\n",
		first.HitRate*100, last.HitRate*100)
}
