//go:build race

package workload

// Under the race detector sync.Pool discards a quarter of its Puts on
// purpose, so the authority's pooled scratch is remade and zero-allocation
// assertions over it cannot hold there.
func init() { raceEnabled = true }
