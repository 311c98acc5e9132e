package slab

import "testing"

// TestRunsDoNotOverlap: runs are disjoint and capped, so appending to one
// within its capacity never writes into another, and values never move.
func TestRunsDoNotOverlap(t *testing.T) {
	var sl Slab[uint64]
	perChunk := PerChunk[uint64]()
	var runs [][]uint64
	for i := 0; i < 3*perChunk; i += 7 {
		r := sl.Run(7)
		if len(r) != 7 || cap(r) != 7 {
			t.Fatalf("Run(7) = len %d cap %d", len(r), cap(r))
		}
		for j := range r {
			if r[j] != 0 {
				t.Fatalf("run %d starts with %d at %d, want zeroed", len(runs), r[j], j)
			}
			r[j] = uint64(len(runs))
		}
		runs = append(runs, r)
	}
	for i, r := range runs {
		for j, v := range r {
			if v != uint64(i) {
				t.Fatalf("run %d holds %d at %d: another run wrote over it", i, v, j)
			}
		}
	}
	if big := sl.Run(2 * perChunk); len(big) != 2*perChunk {
		t.Fatalf("a run of two chunks has %d values", len(big))
	}
}
