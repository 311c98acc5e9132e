package slab_test

import (
	"runtime"
	"testing"

	"dnsnoise/internal/pdns"
	"dnsnoise/internal/slab"
)

// Elements with pointers of the sizes the stores cut from slabs: a Counts
// run's *RRStat (8 bytes), chrstat's nameEntry (32: a name, a pointer, a
// fingerprint and a bool) and clientBlock (64: fourteen ids and a pointer;
// chrstat.TestRecordSize pins both shapes), and pdns.Record (56).
type (
	ptr8      struct{ p *int }
	nameEntry struct {
		name    string
		head    *int
		fp      uint32
		queried bool
	}
	clientBlock struct {
		ids  [14]uint32
		next *clientBlock
	}
	ptr64 struct {
		p    *int
		rest [7]uint64
	}
)

// chunkBytes returns the heap bytes a chunk of T takes, measured over many
// chunks of values handed out one at a time. The reading also counts the
// slab's list of its chunks, a slice header a chunk that doubles as it
// fills (47 bytes a chunk over 128), and what the rest of the process
// allocates meanwhile: a few bytes a chunk.
func chunkBytes[T any]() float64 {
	const chunks = 128
	sl := new(slab.Slab[T])
	n := chunks * slab.PerChunk[T]()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		sl.New()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / chunks
}

// TestChunkFitsSizeClass: a chunk of elements with pointers takes ChunkBytes
// of heap, not the next size class up. Since Go 1.22 such an object larger
// than 512 bytes carries an 8-byte type header; a chunk of exactly
// ChunkBytes of them took the 9 472-byte class. The budget allows 1 % for
// the rest of the process; the spill is 15.6 %.
func TestChunkFitsSizeClass(t *testing.T) {
	for _, c := range []struct {
		name  string
		bytes func() float64
	}{
		{"8-byte pointer", chunkBytes[ptr8]},
		{"32-byte nameEntry", chunkBytes[nameEntry]},
		{"64-byte clientBlock", chunkBytes[clientBlock]},
		{"64-byte element", chunkBytes[ptr64]},
		{"pdns.Record", chunkBytes[pdns.Record]},
	} {
		got := c.bytes()
		t.Logf("%s: %.0f bytes a chunk", c.name, got)
		if got > 1.01*slab.ChunkBytes {
			t.Errorf("a chunk of %s takes %.0f bytes, more than the %d of its size class", c.name, got, slab.ChunkBytes)
		}
	}
}
