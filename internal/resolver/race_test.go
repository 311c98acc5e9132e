//go:build race

package resolver

// Under the race detector sync.Pool discards a quarter of its Puts on
// purpose, so pooled scratch is remade and zero-allocation assertions over
// the authority cannot hold there.
func init() { raceEnabled = true }
