package slab

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkIndex holds x to model, the numbers filed and their fingerprints:
// every occupied bucket holds a filed number under its own fingerprint, the
// count is the occupied buckets', and every filed number is found from its
// fingerprint's home before an empty bucket ends the run.
func checkIndex(x *Index, model map[int32]uint32) error {
	occupied := 0
	for b, e := range x.entries {
		if e == 0 {
			continue
		}
		occupied++
		i, fp := int32(uint32(e))-1, uint32(e>>32)
		if want, ok := model[i]; !ok || want != fp {
			return fmt.Errorf("bucket %d holds %d under %#x; the model files it under %#x (%v)", b, i, fp, want, ok)
		}
	}
	if occupied != len(model) || x.Len() != len(model) {
		return fmt.Errorf("%d buckets occupied, Len %d, the model files %d", occupied, x.Len(), len(model))
	}
	for i, fp := range model {
		j, b := x.Probe(fp, x.Home(fp))
		for j != Nil && j != i {
			j, b = x.Probe(fp, b)
		}
		if j == Nil {
			return fmt.Errorf("%d, filed under %#x, is not found from bucket %d", i, fp, x.Home(fp))
		}
	}
	return nil
}

// TestIndexMatchesMap inserts and removes numbers against a Go map and
// checks the table after every operation. A third of the fingerprints come
// from five values, so runs form in one bucket and entries whose home is
// the gap a removal opens must move into it; two of the five have the
// table's last bucket as their home at every size, so those runs wrap
// around to its first buckets. The table grows through its doublings to 512
// buckets, churns at about 300 entries, and is emptied.
func TestIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1D3))
	crowded := [...]uint32{0xFFFFFFFF, 0xFFFFFFF0, 0x80000000, 0x00000001, 0x7FFFFFFF}
	var x Index
	if i, _ := x.Probe(crowded[0], x.Home(crowded[0])); i != Nil {
		t.Fatalf("the zero Index finds %d", i)
	}
	model := make(map[int32]uint32)
	var filed []int32 // model's keys, for picking one to remove
	next := int32(0)
	insert := func() {
		fp := rng.Uint32()
		if rng.Intn(3) == 0 {
			fp = crowded[rng.Intn(len(crowded))]
		}
		x.Insert(fp, next)
		model[next] = fp
		filed = append(filed, next)
		next++
	}
	remove := func() {
		k := rng.Intn(len(filed))
		i := filed[k]
		filed[k] = filed[len(filed)-1]
		filed = filed[:len(filed)-1]
		x.Remove(model[i], i)
		delete(model, i)
	}
	step := func(op int, what string) {
		if err := checkIndex(&x, model); err != nil {
			t.Fatalf("op %d (%s): %v", op, what, err)
		}
	}
	op := 0
	for ; len(model) < 300; op++ {
		insert()
		step(op, "growth")
	}
	if x.Buckets() != 512 {
		t.Fatalf("300 entries in %d buckets, want 512", x.Buckets())
	}
	for end := op + 6000; op < end; op++ {
		if rng.Intn(2) == 0 && len(model) < 320 {
			insert()
			step(op, "churn insert")
		} else {
			remove()
			step(op, "churn remove")
		}
	}
	if x.Buckets() != 512 {
		t.Fatalf("churn at about 300 entries grew the table to %d buckets", x.Buckets())
	}
	for ; len(model) > 0; op++ {
		remove()
		step(op, "drain")
	}
}

// TestReserve: a table reserved for n entries takes them without resizing,
// at the size n insertions grow it to.
func TestReserve(t *testing.T) {
	for _, n := range []int{0, 1, 6, 7, 100, 3072, 3073} {
		var grown, reserved Index
		for i := range n {
			grown.Insert(uint32(i)*0x9E3779B9, int32(i))
		}
		reserved.Reserve(n)
		size := reserved.Buckets()
		for i := range n {
			reserved.Insert(uint32(i)*0x9E3779B9, int32(i))
		}
		if reserved.Buckets() != size || size != grown.Buckets() {
			t.Errorf("Reserve(%d): %d buckets, %d after the insertions; insertions alone grow it to %d", n, size, reserved.Buckets(), grown.Buckets())
		}
	}
}
