// DNSSEC load (paper Section VI-B): with disposable zones signed and the
// resolver validating, every disposable query forces a genuine Ed25519
// signature verification whose result is never reused from cache.
//
//	go run ./examples/dnssecload
package main

import (
	"fmt"
	"log"

	"dnsnoise/internal/experiments"
	"dnsnoise/internal/sim"
)

func main() {
	res, err := experiments.DNSSECLoad(sim.Small())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
	fmt.Printf("\nauthoritative signings performed: %d (one per never-reused disposable RRset)\n", res.SignaturesSigned)
	fmt.Println("a non-disposable answer amortizes its one validation across every later cache hit;")
	fmt.Println("a disposable answer's validation is pure overhead — it will never be asked again.")
}
