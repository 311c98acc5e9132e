// Passive DNS growth (paper Figure 15 and Section VI-C): bootstrapping an
// rpDNS database over consecutive days, watching disposable records come to
// dominate it, and applying the wildcard-collapse mitigation driven by the
// zones the miner discovered.
//
//	go run ./examples/pdnsgrowth
package main

import (
	"fmt"
	"log"

	"dnsnoise/internal/experiments"
	"dnsnoise/internal/sim"
)

func main() {
	res, err := experiments.NewRun(sim.Small(), 8).Fig15PDNSGrowth()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())

	saved := 1 - float64(res.Collapse.BytesAfter)/float64(res.StorageBytes)
	fmt.Printf("\nstoring mined disposable zones as wildcards would cut the database from %.1f MB to %.1f MB (%.0f%% saved)\n",
		float64(res.StorageBytes)/1e6, float64(res.Collapse.BytesAfter)/1e6, saved*100)
}
