package tlb

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"vdom/internal/pagetable"
)

// warm fills ten slots and flushes the last four, so the image ends
// before the slot the clock hand has reached.
func warm(c Cache) {
	for vpn := uint64(0); vpn < 10; vpn++ {
		c.Insert(mk(1, vpn))
	}
	c.FlushRange(1, 6, 4)
}

// padded returns st with its slots padded by zero slots to n, the shape
// every image had before images were trimmed.
func padded(st CacheState, n int) CacheState {
	st.Slots = append(append([]SlotState(nil), st.Slots...), make([]SlotState, n-len(st.Slots))...)
	return st
}

func TestStateTrimsToLastUsedSlot(t *testing.T) {
	if n := len(New(16).State().Slots); n != 0 {
		t.Errorf("empty TLB image has %d slots, want 0", n)
	}
	if n := len(NewSetAssoc(4, 2).State().Slots); n != 0 {
		t.Errorf("empty set-associative image has %d slots, want 0", n)
	}

	c := New(16)
	warm(c)
	st := c.State()
	if len(st.Slots) != 6 || st.Hand != 10 {
		t.Errorf("image has %d slots and hand %d, want 6 and 10", len(st.Slots), st.Hand)
	}
	// A TLB whose slot array has grown further holds the same
	// architectural state, so it captures the same image.
	d := New(16)
	if err := d.LoadState(st); err != nil {
		t.Fatal(err)
	}
	if len(d.slots) != 6 || len(c.slots) != 10 {
		t.Fatalf("slot arrays %d and %d long, want 6 and 10", len(d.slots), len(c.slots))
	}
	if !reflect.DeepEqual(d.State(), st) {
		t.Error("image depends on how far the slot array has grown")
	}

	// Set 1 way 0 is the last used slot of a 4×2 TLB: flattened index 2.
	sa := NewSetAssoc(4, 2)
	sa.Insert(mk(1, 0))
	sa.Insert(mk(1, 1))
	if n := len(sa.State().Slots); n != 3 {
		t.Errorf("set-associative image has %d slots, want 3", n)
	}
	sa.FlushPage(1, 1)
	if n := len(sa.State().Slots); n != 1 {
		t.Errorf("set-associative image after flush has %d slots, want 1", n)
	}
}

// TestLoadStateEquivalence restores a trimmed image into a used cache,
// and the same image padded to full capacity into a fresh one, then
// drives all three through one seeded operation sequence: every lookup,
// and the stats and image after every operation, must match the cache
// the image was taken from.
func TestLoadStateEquivalence(t *testing.T) {
	for _, org := range []struct {
		name  string
		fresh func() Cache
	}{
		{"fully-associative", func() Cache { return New(16) }},
		{"set-associative", func() Cache { return NewSetAssoc(4, 4) }},
	} {
		t.Run(org.name, func(t *testing.T) {
			orig := org.fresh()
			warm(orig)
			st := orig.State()
			if st.Hands == nil && st.Hand <= len(st.Slots) {
				t.Fatalf("fixture: clock hand %d does not point past the %d-slot image", st.Hand, len(st.Slots))
			}
			// The trimmed image lands on a cache full of other entries:
			// every slot past the image must come out empty.
			trimmed, legacy := org.fresh(), org.fresh()
			for vpn := uint64(100); vpn < 140; vpn++ {
				trimmed.Insert(mk(2, vpn))
			}
			if err := trimmed.LoadState(st); err != nil {
				t.Fatal(err)
			}
			if err := legacy.LoadState(padded(st, legacy.Capacity())); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(legacy.State(), st) {
				t.Fatal("re-capture of a full-capacity image differs from the trimmed capture")
			}

			caches := []Cache{orig, trimmed, legacy}
			rng := rand.New(rand.NewPCG(15, 0))
			for op := 0; op < 2000; op++ {
				k, asid, vpn := rng.IntN(100), ASID(rng.IntN(3)), uint64(rng.IntN(48))
				var want Entry
				var wantOK bool
				for i, c := range caches {
					switch {
					case k < 45:
						c.Insert(Entry{ASID: asid, VPN: vpn, Frame: pagetable.Frame(op), Pdom: 1})
					case k < 80:
						got, ok := c.Lookup(asid, vpn)
						if i == 0 {
							want, wantOK = got, ok
						} else if got != want || ok != wantOK {
							t.Fatalf("op %d: lookup(%d, %d) = %+v %v, want %+v %v", op, asid, vpn, got, ok, want, wantOK)
						}
					case k < 90:
						c.FlushPage(asid, vpn)
					case k < 96:
						c.FlushRange(asid, vpn, 8)
					case k < 99:
						c.FlushASID(asid)
					default:
						c.FlushAll()
					}
				}
				for i, c := range caches[1:] {
					if c.Stats() != orig.Stats() {
						t.Fatalf("op %d: cache %d stats %+v, want %+v", op, i+1, c.Stats(), orig.Stats())
					}
					if !reflect.DeepEqual(c.State(), orig.State()) {
						t.Fatalf("op %d: cache %d image differs from the original's", op, i+1)
					}
				}
			}
		})
	}
}

// TestLoadStateRejectsMisfit feeds each organization images that do not
// fit its geometry: LoadState must return an error and leave the cache
// as it was.
func TestLoadStateRejectsMisfit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fresh func() Cache
		edit  func(*CacheState)
	}{
		{"slots past capacity", func() Cache { return New(16) }, func(st *CacheState) { *st = padded(*st, 17) }},
		{"negative hand", func() Cache { return New(16) }, func(st *CacheState) { st.Hand = -1 }},
		{"hand past capacity", func() Cache { return New(16) }, func(st *CacheState) { st.Hand = 16 }},
		{"set hands on a fully associative image", func() Cache { return New(16) }, func(st *CacheState) { st.Hands = []int{0} }},
		{"set-associative slots past capacity", func() Cache { return NewSetAssoc(4, 4) }, func(st *CacheState) { *st = padded(*st, 17) }},
		{"too few set hands", func() Cache { return NewSetAssoc(4, 4) }, func(st *CacheState) { st.Hands = st.Hands[:3] }},
		{"too many set hands", func() Cache { return NewSetAssoc(4, 4) }, func(st *CacheState) { st.Hands = append(st.Hands, 0) }},
		{"set hand past the ways", func() Cache { return NewSetAssoc(4, 4) }, func(st *CacheState) { st.Hands[2] = 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.fresh()
			warm(c)
			before := c.State()
			bad := c.State()
			tc.edit(&bad)
			if err := c.LoadState(bad); err == nil {
				t.Fatal("LoadState accepted a misfit image")
			}
			if !reflect.DeepEqual(c.State(), before) {
				t.Error("rejected image changed the cache")
			}
		})
	}
}
