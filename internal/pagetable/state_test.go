package pagetable

import (
	"reflect"
	"testing"
)

// TestLoadStateExactSize restores a table spread over several pud, pmd
// and leaf nodes, with an empty leaf and a disabled PMD: the restore must
// re-capture the same image and allocate each node array at exactly the
// size the image calls for.
func TestLoadStateExactSize(t *testing.T) {
	tab := New()
	for _, a := range []VAddr{
		0x1000,                  // pud 0, pmd 0, pt 0
		0x3000,                  // same leaf
		0x20_0000,               // pud 0, pmd 0, pt 1
		0x4000_0000,             // pud 0, pmd 1
		0x80_0000_0000,          // pud 1
		0x80_0020_0000,          // pud 1, second leaf
		0x7fff_ffff_f000,        // pud 255
		0x7fff_ffff_e000,        // same leaf
		0x100_0000_0000 | 5<<21, // pud 2, left empty below
	} {
		tab.Map(a, Frame(a>>PageShift), true, 1)
	}
	tab.Unmap(0x100_0000_0000 | 5<<21)
	if !tab.DisablePMD(0x80_0020_0000) {
		t.Fatal("DisablePMD on a present leaf failed")
	}
	st := tab.State()

	var got Table
	got.LoadState(st)
	if !reflect.DeepEqual(got.State(), st) {
		t.Fatal("re-capture differs from the restored image")
	}
	for _, n := range []struct {
		name             string
		length, capacity int
		want             int
	}{
		{"puds", len(got.puds), cap(got.puds), 4},
		{"pmds", len(got.pmds), cap(got.pmds), 5},
		{"pts", len(got.pts), cap(got.pts), len(st.PTs)},
	} {
		if n.length != n.want || n.capacity != n.want {
			t.Errorf("%s: len %d cap %d, want both %d", n.name, n.length, n.capacity, n.want)
		}
	}
	for _, a := range []VAddr{0x1000, 0x2000, 0x80_0020_0000, 0x100_0000_0000 | 5<<21, 0x7fff_ffff_e000, 0x5000_0000_0000} {
		if w, g := tab.Walk(a), got.Walk(a); w != g {
			t.Errorf("Walk(%#x) = %+v after restore, want %+v", a, g, w)
		}
	}
}

// TestDistinct counts pmd (shift 9) and pud (shift 18) coordinates over
// two lists; on unsorted input the count may only overshoot.
func TestDistinct(t *testing.T) {
	pts := []uint64{0, 1, 1 << 9, 1 << 18, 1<<18 | 3}
	disabled := []uint64{1, 1<<18 | 1<<9}
	if n := distinct(pts, disabled, 9); n != 4 {
		t.Errorf("pmd count = %d, want 4", n)
	}
	if n := distinct(pts, disabled, 18); n != 2 {
		t.Errorf("pud count = %d, want 2", n)
	}
	if n := distinct(nil, nil, 9); n != 0 {
		t.Errorf("empty count = %d, want 0", n)
	}
	if n := distinct([]uint64{1 << 18, 0, 1 << 18}, nil, 18); n < 2 {
		t.Errorf("unsorted pud count = %d, below the 2 distinct values", n)
	}
}
